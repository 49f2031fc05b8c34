// 2D FFT built from 1D row FFTs and a transpose, mirroring the distributed
// flow the paper maps onto both architectures (Section V-B):
//   row FFTs -> transpose -> row FFTs (-> optional transpose back).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "psync/fft/fft.hpp"

namespace psync::fft {

struct Fft2dOps {
  OpCount row_pass;
  OpCount col_pass;
  OpCount total() const {
    OpCount t = row_pass;
    t += col_pass;
    return t;
  }
};

/// In-place 2D FFT of a row-major rows x cols matrix via the
/// row-transpose-row method. When `restore_layout` is true a final
/// transpose returns the result to natural (row-major, untransposed)
/// orientation; when false the result is left transposed (cols x rows),
/// which is how the distributed flow leaves it in DRAM. A square matrix
/// transposes in place; a non-square one transposes through `*scratch`
/// (resized, capacity reused).
Fft2dOps fft2d(std::span<Complex> data, std::size_t rows, std::size_t cols,
               bool restore_layout, std::vector<Complex>* scratch);

/// The same with a transpose buffer of its own.
Fft2dOps fft2d(std::span<Complex> data, std::size_t rows, std::size_t cols,
               bool restore_layout = true);

}  // namespace psync::fft
