// Radix-2 decimation-in-time FFT with the blocked execution mode the paper's
// Model II exploits (Section V-B-1, Fig. 10).
//
// A DIT FFT over bit-reversed input runs its early butterfly stages entirely
// within contiguous sub-blocks; non-locality (butterfly span) doubles each
// stage. Delivering a row in k blocks therefore allows each block's local
// sub-FFT — the first log2(N/k) stages — to run as soon as that block
// arrives, leaving only the last log2(k) global stages for a final
// compute-only phase. Operation counts match the paper's Eq. 17/18 and are
// exposed so the analysis library can be cross-checked against real code.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace psync::fft {

using Complex = std::complex<double>;

/// Multiply/add accounting. The paper counts 4 real multiplies per butterfly
/// (one complex multiply) and only multiplies toward compute time.
struct OpCount {
  std::uint64_t butterflies = 0;
  std::uint64_t real_mults = 0;
  std::uint64_t real_adds = 0;

  OpCount& operator+=(const OpCount& o) {
    butterflies += o.butterflies;
    real_mults += o.real_mults;
    real_adds += o.real_adds;
    return *this;
  }
};

/// Expected multiplies for one block's local sub-FFT under k-block delivery:
/// Eq. 17, (2N/k) * log2(N/k).
std::uint64_t block_phase_mults(std::size_t n, std::size_t k);
/// Expected multiplies for the final global phase: Eq. 18, 2N * log2(k).
std::uint64_t final_phase_mults(std::size_t n, std::size_t k);
/// Expected multiplies for a full N-point FFT: 2N * log2(N).
std::uint64_t full_fft_mults(std::size_t n);

/// True when run_stages uses the vectorized (AVX2 on x86, NEON on AArch64)
/// butterfly bodies: the CPU supports them and the PSYNC_FORCE_SCALAR
/// environment variable is unset. The vector bodies perform the same real
/// multiplies and adds per element as the scalar loops (no FMA
/// contraction), so results are bit-identical either way.
bool vector_kernel();

/// Precomputed plan for N-point transforms (N a power of two, N >= 1).
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t log2n() const { return log2n_; }

  /// In-place forward DIT FFT. Returns the operation count.
  OpCount forward(std::span<Complex> data) const;

  /// Blocked forward FFT in k delivery blocks (k a power of two dividing N):
  /// 1. bit-reversal permutation of the whole row (addressing only),
  /// 2. per block b in [0, k): local sub-FFT of the first log2(N/k) stages,
  /// 3. final log2(k) global stages.
  /// `block_ops` (optional, size k) receives per-block op counts; the
  /// returned count is the final phase only. The result equals forward().
  OpCount forward_blocked(std::span<Complex> data, std::size_t k,
                          std::vector<OpCount>* block_ops = nullptr) const;

  /// Runs stages [first_stage, last_stage) on `data` (already bit-reversed).
  /// Stage s in [0, log2 N) has butterfly span 2^s. Exposed so machine
  /// simulators can interleave stage execution with delivery.
  ///
  /// The kernel fuses stage pairs (radix-4 style) and reads contiguous
  /// per-stage twiddle tables; it performs the exact real multiplies and
  /// adds of the strided radix-2 loop, in the same order per element, so
  /// results are bit-identical to it for finite data. That loop is the test
  /// oracle (tests/oracle/fft_stages.hpp).
  OpCount run_stages(std::span<Complex> data, std::size_t first_stage,
                     std::size_t last_stage, std::size_t block_offset = 0,
                     std::size_t block_size = 0) const;

  /// Bit-reversal permutation of `data` (size N).
  void bit_reverse(std::span<Complex> data) const;

  /// Source index that lands at position i after bit reversal.
  std::size_t bit_reversed_index(std::size_t i) const { return rev_[i]; }

 private:
  std::size_t n_;
  std::size_t log2n_;
  std::vector<std::size_t> rev_;
  // Stage-major twiddles: stage s's factors exp(-2*pi*i*j/2^(s+1)), j < 2^s,
  // start at stage_off_[s], stored as split real/imag arrays so the inner
  // loops read contiguous doubles (SIMD-friendly).
  std::vector<std::size_t> stage_off_;
  std::vector<double> stage_tw_re_;
  std::vector<double> stage_tw_im_;
};

/// max over i < n of std::abs(z(i)), folded into std::max from 0 so NaN
/// moduli drop out. std::abs is hypot, far dearer than a multiply-add, so
/// the scan first finds the top of re^2 + im^2 and then runs hypot only on
/// entries within a relative 1e-12 of it. Both roundings are a few ulps, so
/// the entry holding the true max always makes that cut. The squares lose
/// that accuracy when the top is zero or subnormal, or infinite (|z| above
/// ~1.3e154), and a NaN square (a NaN part) may hide an infinite modulus;
/// then every entry takes hypot. `z` may compute its values on the fly.
template <class Z>
double max_modulus(std::size_t n, Z z) {
  const auto square = [](Complex v) {
    return v.real() * v.real() + v.imag() * v.imag();
  };
  double top = 0.0;
  bool nan = false;
  for (std::size_t i = 0; i < n && !nan; ++i) {
    const double sq = square(z(i));
    if (sq > top) {
      top = sq;
    } else {
      nan = std::isnan(sq);
    }
  }
  const bool cut_ok =
      !nan && top >= std::numeric_limits<double>::min() &&
      top <= std::numeric_limits<double>::max();
  const double cut = top * (1.0 - 1e-12);
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Complex v = z(i);
    if (!cut_ok || square(v) >= cut) m = std::max(m, std::abs(v));
  }
  return m;
}

/// Max |a-b| over two sequences: bit-identical to folding std::abs(a[i] -
/// b[i]) into std::max from 0, NaN moduli skipped (max_modulus).
double max_abs_diff(std::span<const Complex> a, std::span<const Complex> b);

/// Max |a| over a sequence, same contract as max_abs_diff.
double max_abs(std::span<const Complex> a);

/// The machines' verify metric: max_abs_diff(got, ref) divided by
/// max_abs(ref), the divisor floored at 1e-30.
double normalized_max_error(std::span<const Complex> got,
                            std::span<const Complex> ref);

}  // namespace psync::fft
