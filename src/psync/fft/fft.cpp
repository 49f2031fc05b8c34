#include "psync/fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "psync/common/check.hpp"
#include "psync/fft/fft_kernels.hpp"

namespace psync::fft {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t ilog2(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

}  // namespace

bool vector_kernel() { return detail::vector_kernel_available(); }

std::uint64_t block_phase_mults(std::size_t n, std::size_t k) {
  PSYNC_CHECK(is_pow2(n) && is_pow2(k) && k <= n);
  const std::size_t bs = n / k;
  return 2ULL * bs * ilog2(bs);
}

std::uint64_t final_phase_mults(std::size_t n, std::size_t k) {
  PSYNC_CHECK(is_pow2(n) && is_pow2(k) && k <= n);
  return 2ULL * n * ilog2(k);
}

std::uint64_t full_fft_mults(std::size_t n) {
  PSYNC_CHECK(is_pow2(n));
  return 2ULL * n * ilog2(n);
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) {
    throw SimulationError("FftPlan: size must be a power of two");
  }
  log2n_ = ilog2(n);
  rev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n_; ++b) {
      r |= ((i >> b) & 1U) << (log2n_ - 1 - b);
    }
    rev_[i] = r;
  }
  // twiddle[j] = exp(-2*pi*i*j/N), j < N/2. The test oracle
  // (tests/oracle/fft_stages.cpp) builds its table with this exact
  // expression, so both multiply by bit-identical factors.
  std::vector<Complex> twiddle(std::max<std::size_t>(n / 2, 1));
  for (std::size_t j = 0; j < twiddle.size(); ++j) {
    const double ang =
        -2.0 * std::numbers::pi * static_cast<double>(j) / static_cast<double>(n);
    twiddle[j] = Complex(std::cos(ang), std::sin(ang));
  }
  // Stage-major layout: stage s uses factors twiddle[j * (n >> (s+1))] for
  // j < 2^s; laying them out contiguously per stage turns the kernel's
  // twiddle loads into sequential reads.
  stage_off_.resize(log2n_ + 1);
  stage_tw_re_.resize(n_ > 1 ? n_ - 1 : 1);
  stage_tw_im_.resize(n_ > 1 ? n_ - 1 : 1);
  std::size_t off = 0;
  for (std::size_t s = 0; s < log2n_; ++s) {
    stage_off_[s] = off;
    const std::size_t half = std::size_t{1} << s;
    const std::size_t stride = n_ >> (s + 1);
    for (std::size_t j = 0; j < half; ++j) {
      stage_tw_re_[off + j] = twiddle[j * stride].real();
      stage_tw_im_[off + j] = twiddle[j * stride].imag();
    }
    off += half;
  }
  stage_off_[log2n_] = off;
}

void FftPlan::bit_reverse(std::span<Complex> data) const {
  PSYNC_CHECK(data.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t r = rev_[i];
    if (i < r) std::swap(data[i], data[r]);
  }
}

// Stage kernel. Two consecutive radix-2 stages are fused into one pass
// over each 4*2^s-element group (a radix-4 decomposition that keeps radix-2
// arithmetic): the stage-s butterflies of a group feed its stage-(s+1)
// butterflies directly from registers, halving the number of passes over the
// data. Complex multiplies are written out as the four real multiplies and
// two adds that operator*(complex, complex) performs for finite values, on
// factors copied bit-for-bit into the contiguous stage tables — so every
// element sees the exact arithmetic sequence of the strided radix-2 loop
// (the test oracle, tests/oracle/fft_stages.cpp) and the results match to
// the bit.
OpCount FftPlan::run_stages(std::span<Complex> data, std::size_t first_stage,
                            std::size_t last_stage, std::size_t block_offset,
                            std::size_t block_size) const {
  PSYNC_CHECK(data.size() == n_);
  PSYNC_CHECK(first_stage <= last_stage && last_stage <= log2n_);
  if (block_size == 0) {
    block_offset = 0;
    block_size = n_;
  }
  PSYNC_CHECK(block_offset + block_size <= n_);

  OpCount ops;
  const auto count_stage = [&ops, block_size]() {
    const std::uint64_t bf = block_size / 2;
    ops.butterflies += bf;
    ops.real_mults += 4 * bf;
    ops.real_adds += 6 * bf;
  };

  double* const d = reinterpret_cast<double*>(data.data());
  // The vector bodies need >= 2 complexes per butterfly half (half >= 2);
  // stages below that stay on the scalar loops.
  const bool vec = vector_kernel();
  std::size_t s = first_stage;
  while (s < last_stage) {
    const std::size_t half = std::size_t{1} << s;
    const double* const w1r = stage_tw_re_.data() + stage_off_[s];
    const double* const w1i = stage_tw_im_.data() + stage_off_[s];

    if (s + 1 < last_stage) {
      // Fused stages s and s+1 over groups of 4*half elements.
      const std::size_t quad = half << 2;
      PSYNC_CHECK_MSG(quad <= block_size,
                      "butterfly span exceeds the block being computed");
      const double* const w2r = stage_tw_re_.data() + stage_off_[s + 1];
      const double* const w2i = stage_tw_im_.data() + stage_off_[s + 1];
      const std::size_t end = block_offset + block_size;
      if (vec && half >= 2) {
        detail::fused_pair_vec(d, w1r, w1i, w2r, w2i, half, block_offset, end);
        count_stage();
        count_stage();
        s += 2;
        continue;
      }
      for (std::size_t start = block_offset; start < end; start += quad) {
        double* const p0 = d + 2 * start;
        double* const p1 = p0 + 2 * half;
        double* const p2 = p1 + 2 * half;
        double* const p3 = p2 + 2 * half;
        for (std::size_t j = 0; j < half; ++j) {
          const double wr = w1r[j];
          const double wi = w1i[j];
          // Stage s: butterfly (p0, p1) and (p2, p3), same twiddle.
          const double t0r = wr * p1[2 * j] - wi * p1[2 * j + 1];
          const double t0i = wr * p1[2 * j + 1] + wi * p1[2 * j];
          const double a0r = p0[2 * j];
          const double a0i = p0[2 * j + 1];
          const double u0r = a0r + t0r;
          const double u0i = a0i + t0i;
          const double u1r = a0r - t0r;
          const double u1i = a0i - t0i;
          const double t1r = wr * p3[2 * j] - wi * p3[2 * j + 1];
          const double t1i = wr * p3[2 * j + 1] + wi * p3[2 * j];
          const double a2r = p2[2 * j];
          const double a2i = p2[2 * j + 1];
          const double u2r = a2r + t1r;
          const double u2i = a2i + t1i;
          const double u3r = a2r - t1r;
          const double u3i = a2i - t1i;
          // Stage s+1: butterfly (u0, u2) with w2[j], (u1, u3) with
          // w2[j + half].
          const double v0r = w2r[j];
          const double v0i = w2i[j];
          const double t2r = v0r * u2r - v0i * u2i;
          const double t2i = v0r * u2i + v0i * u2r;
          p0[2 * j] = u0r + t2r;
          p0[2 * j + 1] = u0i + t2i;
          p2[2 * j] = u0r - t2r;
          p2[2 * j + 1] = u0i - t2i;
          const double v1r = w2r[j + half];
          const double v1i = w2i[j + half];
          const double t3r = v1r * u3r - v1i * u3i;
          const double t3i = v1r * u3i + v1i * u3r;
          p1[2 * j] = u1r + t3r;
          p1[2 * j + 1] = u1i + t3i;
          p3[2 * j] = u1r - t3r;
          p3[2 * j + 1] = u1i - t3i;
        }
      }
      count_stage();
      count_stage();
      s += 2;
      continue;
    }

    // Single tail stage.
    const std::size_t m = half << 1;
    PSYNC_CHECK_MSG(m <= block_size,
                    "butterfly span exceeds the block being computed");
    const std::size_t end = block_offset + block_size;
    if (vec && half >= 2) {
      detail::single_stage_vec(d, w1r, w1i, half, block_offset, end);
      count_stage();
      ++s;
      continue;
    }
    for (std::size_t start = block_offset; start < end; start += m) {
      double* const lo = d + 2 * start;
      double* const hi = lo + 2 * half;
      for (std::size_t j = 0; j < half; ++j) {
        const double wr = w1r[j];
        const double wi = w1i[j];
        const double tr = wr * hi[2 * j] - wi * hi[2 * j + 1];
        const double ti = wr * hi[2 * j + 1] + wi * hi[2 * j];
        const double ar = lo[2 * j];
        const double ai = lo[2 * j + 1];
        lo[2 * j] = ar + tr;
        lo[2 * j + 1] = ai + ti;
        hi[2 * j] = ar - tr;
        hi[2 * j + 1] = ai - ti;
      }
    }
    count_stage();
    ++s;
  }
  return ops;
}

OpCount FftPlan::forward(std::span<Complex> data) const {
  bit_reverse(data);
  return run_stages(data, 0, log2n_);
}

OpCount FftPlan::forward_blocked(std::span<Complex> data, std::size_t k,
                                 std::vector<OpCount>* block_ops) const {
  PSYNC_CHECK(data.size() == n_);
  if (!is_pow2(k) || k > n_) {
    throw SimulationError("forward_blocked: k must be a power of two <= N");
  }
  bit_reverse(data);
  const std::size_t bs = n_ / k;
  const std::size_t local_stages = ilog2(bs);
  if (block_ops != nullptr) block_ops->assign(k, OpCount{});
  for (std::size_t b = 0; b < k; ++b) {
    const OpCount ops = run_stages(data, 0, local_stages, b * bs, bs);
    if (block_ops != nullptr) (*block_ops)[b] = ops;
  }
  return run_stages(data, local_stages, log2n_);
}

double max_abs_diff(std::span<const Complex> a, std::span<const Complex> b) {
  PSYNC_CHECK(a.size() == b.size());
  return max_modulus(a.size(), [&](std::size_t i) { return a[i] - b[i]; });
}

double max_abs(std::span<const Complex> a) {
  return max_modulus(a.size(), [&](std::size_t i) { return a[i]; });
}

double normalized_max_error(std::span<const Complex> got,
                            std::span<const Complex> ref) {
  return max_abs_diff(got, ref) / std::max(1e-30, max_abs(ref));
}

}  // namespace psync::fft
