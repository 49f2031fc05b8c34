#include "oracle/fft_stages.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "psync/common/check.hpp"

namespace psync::oracle {

StridedFft::StridedFft(std::size_t n) : n_(n) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw SimulationError("StridedFft: size must be a power of two");
  }
  while ((std::size_t{1} << log2n_) < n) ++log2n_;
  rev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < log2n_; ++b) {
      rev_[i] |= ((i >> b) & 1U) << (log2n_ - 1 - b);
    }
  }
  twiddle_.resize(std::max<std::size_t>(n / 2, 1));
  for (std::size_t j = 0; j < twiddle_.size(); ++j) {
    const double ang =
        -2.0 * std::numbers::pi * static_cast<double>(j) / static_cast<double>(n);
    twiddle_[j] = fft::Complex(std::cos(ang), std::sin(ang));
  }
}

void StridedFft::bit_reverse(std::span<fft::Complex> data) const {
  PSYNC_CHECK(data.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    if (i < rev_[i]) std::swap(data[i], data[rev_[i]]);
  }
}

fft::OpCount StridedFft::run_stages(std::span<fft::Complex> data,
                                    std::size_t first_stage,
                                    std::size_t last_stage,
                                    std::size_t block_offset,
                                    std::size_t block_size) const {
  PSYNC_CHECK(data.size() == n_);
  PSYNC_CHECK(first_stage <= last_stage && last_stage <= log2n_);
  if (block_size == 0) {
    block_offset = 0;
    block_size = n_;
  }
  PSYNC_CHECK(block_offset + block_size <= n_);

  fft::OpCount ops;
  for (std::size_t s = first_stage; s < last_stage; ++s) {
    const std::size_t m = std::size_t{1} << (s + 1);
    PSYNC_CHECK_MSG(m <= block_size,
                    "butterfly span exceeds the block being computed");
    const std::size_t half = m / 2;
    const std::size_t stride = n_ / m;  // twiddle index stride
    for (std::size_t start = block_offset; start < block_offset + block_size;
         start += m) {
      for (std::size_t j = 0; j < half; ++j) {
        const fft::Complex w = twiddle_[j * stride];
        const fft::Complex t = w * data[start + half + j];
        const fft::Complex u = data[start + j];
        data[start + j] = u + t;
        data[start + half + j] = u - t;
      }
    }
    const std::uint64_t bf = block_size / 2;
    ops.butterflies += bf;
    ops.real_mults += 4 * bf;  // one complex multiply
    ops.real_adds += 6 * bf;   // complex multiply adds + two complex adds
  }
  return ops;
}

fft::OpCount StridedFft::forward(std::span<fft::Complex> data) const {
  bit_reverse(data);
  return run_stages(data, 0, log2n_);
}

fft::OpCount StridedFft::forward_blocked(std::span<fft::Complex> data,
                                         std::size_t k) const {
  PSYNC_CHECK(k != 0 && (k & (k - 1)) == 0 && k <= n_);
  bit_reverse(data);
  const std::size_t bs = n_ / k;
  std::size_t local_stages = 0;
  while ((std::size_t{1} << local_stages) < bs) ++local_stages;
  for (std::size_t b = 0; b < k; ++b) {
    run_stages(data, 0, local_stages, b * bs, bs);
  }
  return run_stages(data, local_stages, log2n_);
}

fft::OpCount run_stages(std::span<fft::Complex> data, std::size_t first_stage,
                        std::size_t last_stage, std::size_t block_offset,
                        std::size_t block_size) {
  return StridedFft(data.size())
      .run_stages(data, first_stage, last_stage, block_offset, block_size);
}

}  // namespace psync::oracle
