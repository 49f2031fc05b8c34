#include "psync/fft/fft.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "oracle/naive_dft.hpp"
#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "rng_draws.hpp"

namespace psync::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) {
    x = Complex(rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0);
  }
  return v;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto sig = random_signal(n, 42 + n);
  const auto ref = oracle::naive_dft(sig);
  FftPlan plan(n);
  plan.forward(sig);
  EXPECT_LT(max_abs_diff(sig, ref), 1e-8 * static_cast<double>(n));
}

TEST_P(FftSizes, InverseRecoversInput) {
  const std::size_t n = GetParam();
  const auto orig = random_signal(n, 7 + n);
  auto sig = orig;
  FftPlan plan(n);
  plan.forward(sig);
  sig = oracle::naive_idft(sig);
  EXPECT_LT(max_abs_diff(sig, orig), 1e-10 * static_cast<double>(n));
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto sig = random_signal(n, 11 + n);
  double time_energy = 0.0;
  for (const auto& v : sig) time_energy += std::norm(v);
  FftPlan plan(n);
  plan.forward(sig);
  double freq_energy = 0.0;
  for (const auto& v : sig) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> sig(16, {0.0, 0.0});
  sig[0] = {1.0, 0.0};
  FftPlan plan(16);
  plan.forward(sig);
  for (const auto& v : sig) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t bin = 5;
  std::vector<Complex> sig(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(bin) *
                       static_cast<double>(i) / static_cast<double>(n);
    sig[i] = {std::cos(ang), std::sin(ang)};
  }
  FftPlan plan(n);
  plan.forward(sig);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == bin) {
      EXPECT_NEAR(std::abs(sig[i]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(sig[i]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, Linearity) {
  const std::size_t n = 128;
  auto a = random_signal(n, 1);
  auto b = random_signal(n, 2);
  std::vector<Complex> mix(n);
  for (std::size_t i = 0; i < n; ++i) mix[i] = 2.0 * a[i] + 3.0 * b[i];
  FftPlan plan(n);
  plan.forward(a);
  plan.forward(b);
  plan.forward(mix);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(mix[i] - (2.0 * a[i] + 3.0 * b[i])), 0.0, 1e-8);
  }
}

class BlockedFft
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(BlockedFft, BlockedEqualsMonolithic) {
  const auto [n, k] = GetParam();
  auto blocked = random_signal(n, n * 31 + k);
  auto mono = blocked;
  FftPlan plan(n);
  plan.forward_blocked(blocked, k);
  plan.forward(mono);
  EXPECT_LT(max_abs_diff(blocked, mono), 1e-12 * static_cast<double>(n));
}

TEST_P(BlockedFft, OpCountsMatchPaperEquations) {
  const auto [n, k] = GetParam();
  auto sig = random_signal(n, 5);
  FftPlan plan(n);
  std::vector<OpCount> block_ops;
  const OpCount final_ops = plan.forward_blocked(sig, k, &block_ops);
  ASSERT_EQ(block_ops.size(), k);
  for (const auto& ops : block_ops) {
    EXPECT_EQ(ops.real_mults, block_phase_mults(n, k));  // Eq. 17
  }
  EXPECT_EQ(final_ops.real_mults, final_phase_mults(n, k));  // Eq. 18
  // Total equals the monolithic count.
  std::uint64_t total = final_ops.real_mults;
  for (const auto& ops : block_ops) total += ops.real_mults;
  EXPECT_EQ(total, full_fft_mults(n));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, BlockedFft,
    ::testing::Values(std::pair<std::size_t, std::size_t>{64, 1},
                      std::pair<std::size_t, std::size_t>{64, 2},
                      std::pair<std::size_t, std::size_t>{64, 8},
                      std::pair<std::size_t, std::size_t>{256, 4},
                      std::pair<std::size_t, std::size_t>{1024, 16},
                      std::pair<std::size_t, std::size_t>{1024, 64}));

TEST(Fft, PaperTable1ComputeTimes) {
  // Table I cross-check against real op counts: k=1 -> 20480 mults -> 40960
  // ns at 2 ns per multiply; k=2 -> 9216 per block, 2048 final.
  EXPECT_EQ(full_fft_mults(1024), 20480u);
  EXPECT_EQ(block_phase_mults(1024, 2), 9216u);
  EXPECT_EQ(final_phase_mults(1024, 2), 4096u / 2);
  EXPECT_EQ(block_phase_mults(1024, 64), 128u);
  EXPECT_EQ(final_phase_mults(1024, 64), 12288u);
}

TEST(Fft, OpCountAccumulation) {
  OpCount a{1, 4, 6};
  OpCount b{2, 8, 12};
  a += b;
  EXPECT_EQ(a.butterflies, 3u);
  EXPECT_EQ(a.real_mults, 12u);
  EXPECT_EQ(a.real_adds, 18u);
}

TEST(Fft, BitReversalIsInvolution) {
  FftPlan plan(256);
  auto sig = random_signal(256, 3);
  const auto orig = sig;
  plan.bit_reverse(sig);
  EXPECT_GT(max_abs_diff(sig, orig), 0.0);
  plan.bit_reverse(sig);
  EXPECT_EQ(max_abs_diff(sig, orig), 0.0);
}

TEST(Fft, BitReversedIndexConsistent) {
  FftPlan plan(16);
  for (std::size_t i = 0; i < 16; ++i) {
    const std::size_t r = plan.bit_reversed_index(i);
    EXPECT_EQ(plan.bit_reversed_index(r), i);
  }
  EXPECT_EQ(plan.bit_reversed_index(1), 8u);
  EXPECT_EQ(plan.bit_reversed_index(3), 12u);
}

TEST(Fft, NonPowerOfTwoRejected) {
  EXPECT_THROW(FftPlan(12), SimulationError);
  EXPECT_THROW(FftPlan(0), SimulationError);
}

TEST(Fft, RunStagesRejectsOversizedSpanInBlock) {
  FftPlan plan(16);
  std::vector<Complex> sig(16);
  // Stage 3 has span 16 > block size 4.
  EXPECT_DEATH((void)plan.run_stages(sig, 3, 4, 0, 4), "span exceeds");
}

TEST(Fft, NaiveIdftInvertsNaiveDft) {
  auto sig = random_signal(32, 77);
  const auto freq = oracle::naive_dft(sig);
  const auto back = oracle::naive_idft(freq);
  EXPECT_LT(max_abs_diff(back, sig), 1e-10);
}


// The verify scan against the plain fold it replaces: std::abs of every
// entry into std::max from 0, compared bit for bit.
double plain_max_abs_diff(const std::vector<Complex>& a,
                          const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

double plain_normalized_error(const std::vector<Complex>& got,
                              const std::vector<Complex>& ref) {
  double max_abs = 1e-30;
  for (const auto& v : ref) max_abs = std::max(max_abs, std::abs(v));
  return plain_max_abs_diff(got, ref) / max_abs;
}

void expect_scans_agree(const std::vector<Complex>& a,
                        const std::vector<Complex>& b) {
  const std::vector<Complex> zero(a.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(max_abs_diff(a, b)),
            std::bit_cast<std::uint64_t>(plain_max_abs_diff(a, b)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(max_abs(a)),
            std::bit_cast<std::uint64_t>(plain_max_abs_diff(a, zero)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(normalized_max_error(a, b)),
            std::bit_cast<std::uint64_t>(plain_normalized_error(a, b)));
}

TEST(VerifyScan, MatchesPlainHypotScanOnAdversarialInputs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<Complex>> cases = {
      {},
      {{0.0, 0.0}},
      {{-0.0, -0.0}, {0.0, -0.0}, {-0.0, 0.0}},
      // Exact ties: one modulus, different components and signs.
      {{3, 4}, {4, 3}, {5, 0}, {0, -5}, {-3, -4}, {-4, 3}},
      // Near ties: the squares and the hypots may order these differently.
      {{1.0, 1e-8}, {std::nextafter(1.0, 2.0), 0.0},
       {1.0, std::nextafter(1e-8, 1.0)}, {1e-8, 1.0}},
      {{0.6, 0.8}, {0.8, 0.6}, {std::nextafter(0.6, 1.0), 0.8},
       {1.0, 0.0}, {std::nextafter(1.0, 0.0), 0.0}},
      // Pairs whose rounded squares order them against their hypots.
      {{0.76012171866912515, 0.52962107361422617},
       {0.76012171866912526, 0.52962107361422606}},
      {{0.52517716362352473, 0.59620516472559237},
       {0.52517716362352485, 0.59620516472559226}},
      {{0.80460507380505819, 0.5909127013198423},
       {0.8046050738050583, 0.59091270131984219}},
      // Subnormal and underflowing squares.
      {{kTiny, 0.0}, {0.0, kTiny}, {kTiny, kTiny}},
      {{1e-310, 3e-310}, {-2e-310, 1e-309}, {4.9e-324, -1e-320}},
      {{1e-160, 1e-160}, {-2e-160, 5e-161}, {1e-170, 0.0}},
      // A top just above the smallest normal square, beside entries whose
      // squares underflow.
      {{1.5e-154, 0.0}, {1.49e-154, 2e-160}, {1e-160, 1.5e-154}},
      {{std::sqrt(kMin), 0.0}, {0.0, std::sqrt(kMin)}, {1e-200, 0.0}},
      // Squares near and past overflow (|z| ~ 1.34e154).
      {{1e154, 1e154}, {1.3e154, 0.0}, {-1.2e154, 5e153}},
      {{1.34e154, 0.0}, {1.35e154, 0.0}, {1e300, -1e300}, {1.0, 1.0}},
      {{1e-300, 0.0}, {1e300, 0.0}},
      // Infinities and NaNs: std::abs is inf if either part is inf, even
      // beside a NaN, and NaN moduli drop out of the std::max fold.
      {{kInf, 0.0}, {1.0, 2.0}},
      {{1.0, 2.0}, {kNan, kInf}, {3.0, 4.0}},
      {{kNan, 1.0}, {2.0, 2.0}},
      {{kNan, kNan}, {-kInf, -kInf}},
      {{kNan, 0.0}},
      {{1.0, kNan}, {kNan, 1.0}, {0.5, 0.5}, {1e-320, 0.0}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const std::vector<Complex> zero(cases[c].size());
    expect_scans_agree(cases[c], zero);
    // The same moduli as differences of nonzero operands.
    std::vector<Complex> shifted = cases[c];
    std::vector<Complex> base(cases[c].size(), Complex{0.25, -0.5});
    for (std::size_t i = 0; i < shifted.size(); ++i) shifted[i] += base[i];
    expect_scans_agree(shifted, base);
  }

  // Random signals at every scale, with planted ties of the top modulus.
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const double scale =
        std::ldexp(1.0, static_cast<int>(next_below(rng, 2098)) - 1075);
    const auto seed = static_cast<std::uint64_t>(trial);
    std::vector<Complex> a = random_signal(1 + next_below(rng, 64), 7 + seed);
    for (auto& v : a) v *= scale;
    if (rng.next_bool()) {
      const Complex top = a[next_below(rng, a.size())];
      a[next_below(rng, a.size())] = Complex(top.imag(), -top.real());
    }
    expect_scans_agree(a, std::vector<Complex>(a.size()));
    expect_scans_agree(a, random_signal(a.size(), 9000 + seed));
  }
}

}  // namespace
}  // namespace psync::fft
