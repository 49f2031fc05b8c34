// Test oracle for the FFT paths: the O(N^2) DFT straight from its
// definition, which fft::FftPlan, fft::fft2d and the four-step transform
// are validated against on small sizes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "psync/fft/fft.hpp"

namespace psync::oracle {

/// Forward and inverse (scaled by 1/N) DFT of `in`.
std::vector<fft::Complex> naive_dft(std::span<const fft::Complex> in);
std::vector<fft::Complex> naive_idft(std::span<const fft::Complex> in);

/// Row-major 2D DFT: naive_dft over every row, then every column.
std::vector<fft::Complex> naive_dft2d(std::span<const fft::Complex> in,
                                      std::size_t rows, std::size_t cols);

}  // namespace psync::oracle
