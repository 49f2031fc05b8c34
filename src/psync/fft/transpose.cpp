#include "psync/fft/transpose.hpp"

#include <algorithm>

#include "psync/common/check.hpp"

namespace psync::fft {

void transpose(std::span<const Complex> in, std::span<Complex> out,
               std::size_t rows, std::size_t cols) {
  PSYNC_CHECK(in.size() == rows * cols);
  PSYNC_CHECK(out.size() == rows * cols);
  PSYNC_CHECK(in.data() != out.data());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out[c * rows + r] = in[r * cols + c];
    }
  }
}

void transpose_square_inplace(std::span<Complex> m, std::size_t n) {
  PSYNC_CHECK(m.size() == n * n);
  // Tile (rb, cb) swaps with tile (cb, rb), so both sides of a swap stay
  // within a few cache lines.
  constexpr std::size_t kTile = 16;
  for (std::size_t rb = 0; rb < n; rb += kTile) {
    const std::size_t rend = std::min(rb + kTile, n);
    for (std::size_t cb = rb; cb < n; cb += kTile) {
      const std::size_t cend = std::min(cb + kTile, n);
      for (std::size_t r = rb; r < rend; ++r) {
        for (std::size_t c = std::max(cb, r + 1); c < cend; ++c) {
          std::swap(m[r * n + c], m[c * n + r]);
        }
      }
    }
  }
}

std::size_t transpose_index(std::size_t i, std::size_t rows,
                            std::size_t cols) {
  PSYNC_CHECK(i < rows * cols);
  const std::size_t r = i / cols;
  const std::size_t c = i % cols;
  return c * rows + r;
}

}  // namespace psync::fft
