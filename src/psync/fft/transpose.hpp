// Matrix transpose kernels. The transpose between the two 1D FFT passes of
// the 2D FFT is the paper's headline non-local access pattern.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "psync/fft/fft.hpp"

namespace psync::fft {

/// Row-major rows x cols matrix view over a flat buffer.
template <typename T>
struct MatrixView {
  std::span<T> data;
  std::size_t rows = 0;
  std::size_t cols = 0;

  T& at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
};

/// Out-of-place transpose: out(c, r) = in(r, c). out must hold rows*cols.
void transpose(std::span<const Complex> in, std::span<Complex> out,
               std::size_t rows, std::size_t cols);

/// In-place transpose of a square matrix.
void transpose_square_inplace(std::span<Complex> m, std::size_t n);

/// Linear-address map of the transpose: element at flat index i of the
/// row-major (rows x cols) input lands at flat index transpose_index(...) of
/// the row-major (cols x rows) output. This is the address stream the
/// PSCAN communication program encodes.
std::size_t transpose_index(std::size_t i, std::size_t rows, std::size_t cols);

}  // namespace psync::fft
