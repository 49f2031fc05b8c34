#include "oracle/naive_dft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "psync/common/check.hpp"

namespace psync::oracle {
namespace {

// sum_j in[j] * exp(sign * 2*pi*i * k*j / n) for every k.
std::vector<fft::Complex> dft(std::span<const fft::Complex> in, double sign) {
  const std::size_t n = in.size();
  std::vector<fft::Complex> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    fft::Complex acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(i) * static_cast<double>(j) /
                         static_cast<double>(n);
      acc += in[j] * fft::Complex(std::cos(ang), std::sin(ang));
    }
    out[i] = acc;
  }
  return out;
}

}  // namespace

std::vector<fft::Complex> naive_dft(std::span<const fft::Complex> in) {
  return dft(in, -1.0);
}

std::vector<fft::Complex> naive_idft(std::span<const fft::Complex> in) {
  std::vector<fft::Complex> out = dft(in, 1.0);
  for (auto& z : out) z /= static_cast<double>(in.size());
  return out;
}

std::vector<fft::Complex> naive_dft2d(std::span<const fft::Complex> in,
                                      std::size_t rows, std::size_t cols) {
  PSYNC_CHECK(in.size() == rows * cols);
  std::vector<fft::Complex> tmp(in.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = naive_dft(in.subspan(r * cols, cols));
    std::copy(row.begin(), row.end(),
              tmp.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  std::vector<fft::Complex> out(in.size());
  std::vector<fft::Complex> col(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) col[r] = tmp[r * cols + c];
    const auto f = naive_dft(col);
    for (std::size_t r = 0; r < rows; ++r) out[r * cols + c] = f[r];
  }
  return out;
}

}  // namespace psync::oracle
