#include "psync/fft/four_step.hpp"

#include <gtest/gtest.h>

#include "oracle/naive_dft.hpp"
#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/psync_machine.hpp"
#include "psync/fft/transpose.hpp"

namespace psync::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) {
    x = {rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0};
  }
  return v;
}

TEST(FourStep, FactorsBalance) {
  std::size_t r = 0, c = 0;
  four_step_factor(64, &r, &c);
  EXPECT_EQ(r, 8u);
  EXPECT_EQ(c, 8u);
  four_step_factor(128, &r, &c);
  EXPECT_EQ(r, 8u);
  EXPECT_EQ(c, 16u);
  four_step_factor(4, &r, &c);
  EXPECT_EQ(r, 2u);
  EXPECT_EQ(c, 2u);
  EXPECT_THROW(four_step_factor(24, &r, &c), SimulationError);
  EXPECT_THROW(four_step_factor(2, &r, &c), SimulationError);
}

class FourStepSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FourStepSizes, MatchesMonolithicFft) {
  const std::size_t n = GetParam();
  auto four = random_signal(n, n);
  auto mono = four;
  fft1d_four_step(four);
  FftPlan plan(n);
  plan.forward(mono);
  EXPECT_LT(max_abs_diff(four, mono), 1e-8 * static_cast<double>(n));
}

TEST_P(FourStepSizes, MatchesNaiveDftOnSmallSizes) {
  const std::size_t n = GetParam();
  if (n > 512) GTEST_SKIP() << "naive DFT too slow";
  auto sig = random_signal(n, 3 * n);
  const auto ref = oracle::naive_dft(sig);
  fft1d_four_step(sig);
  EXPECT_LT(max_abs_diff(sig, ref), 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FourStepSizes,
                         ::testing::Values(4, 16, 64, 128, 512, 2048, 8192));

TEST(FourStep, OpCountTracksDecomposition) {
  std::vector<Complex> sig = random_signal(256, 9);
  const OpCount ops = fft1d_four_step(sig);
  // R = C = 16: 16 FFTs of 16 (x2 passes) + 256 twiddle multiplies.
  const std::uint64_t fft_mults = 2ull * 16 * full_fft_mults(16);
  EXPECT_EQ(ops.real_mults, fft_mults + 4ull * 256);
}

TEST(FourStep, TwiddleUnitCircle) {
  for (std::size_t r : {0u, 3u, 7u}) {
    for (std::size_t q : {0u, 1u, 5u}) {
      const Complex w = four_step_twiddle(64, r, q);
      EXPECT_NEAR(std::abs(w), 1.0, 1e-12);
    }
  }
  // W^0 = 1.
  EXPECT_NEAR(std::abs(four_step_twiddle(64, 0, 13) - Complex(1.0, 0.0)), 0.0,
              1e-12);
}

TEST(FourStep, LoadStoreAreExactLayoutMaps) {
  const std::size_t rows = 4, cols = 8;
  auto x = random_signal(rows * cols, 11);
  const auto m = four_step_load(x, rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(m[r * cols + c], x[c * rows + r]);
    }
  }
  // store is the inverse map of the transposed matrix layout.
  std::vector<Complex> mt(m.size());
  transpose(m, mt, rows, cols);
  const auto back = four_step_store(mt, rows, cols);
  // back[s*C + q] = mt[q][s] = m[s][q] = x[q*R + s]: store(transpose(load))
  // is the (R x C) <-> (C x R) index swap of the original.
  for (std::size_t s = 0; s < rows; ++s) {
    for (std::size_t q = 0; q < cols; ++q) {
      EXPECT_EQ(back[s * cols + q], x[q * rows + s]);
    }
  }
}

// The machine-level 1D FFT: the paper's claim that the 2D machinery
// generalizes to large 1D transforms, end to end on the P-sync simulator.
TEST(FourStep, PsyncMachineRunsLarge1dFft) {
  core::PsyncMachineParams p;
  p.processors = 8;
  p.matrix_rows = 32;   // R
  p.matrix_cols = 64;   // C: N = 2048-point 1D FFT
  p.delivery_blocks = 4;
  p.head.dram.row_switch_cycles = 0;
  core::PsyncMachine m(p);
  const auto input = random_signal(2048, 21);
  const auto rep = m.run_fft1d(input);
  EXPECT_TRUE(rep.sca_gap_free);
  EXPECT_EQ(rep.sca_collisions, 0u);
  EXPECT_LT(rep.max_error_vs_reference, 1e-3);
  // Phases include the twiddle stage between the passes.
  EXPECT_GT(rep.phase("twiddle").duration_ns(), 0.0);
  EXPECT_GT(rep.phase("sca_transpose").duration_ns(), 0.0);
}

TEST(FourStep, Machine1dMatchesMonolithicPlanExactlyAtFloat32) {
  core::PsyncMachineParams p;
  p.processors = 4;
  p.matrix_rows = 16;
  p.matrix_cols = 16;
  p.head.dram.row_switch_cycles = 0;
  core::PsyncMachine m(p);
  const auto input = random_signal(256, 5);
  m.run_fft1d(input, /*verify=*/false);
  const auto got = m.result_1d();

  std::vector<Complex> ref(input);
  FftPlan plan(256);
  plan.forward(ref);
  double max_abs = 0.0;
  for (const auto& v : ref) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_LT(max_abs_diff(got, ref) / max_abs, 1e-4);
}

TEST(FourStep, MachineReportsTwiddleFlops) {
  core::PsyncMachineParams p;
  p.processors = 4;
  p.matrix_rows = 16;
  p.matrix_cols = 16;
  p.head.dram.row_switch_cycles = 0;
  core::PsyncMachine m(p);
  const auto input = random_signal(256, 6);
  const auto r1d = m.run_fft1d(input, false);

  core::PsyncMachine m2(p);
  const auto r2d = m2.run_fft2d(input, false);
  // The 1D flow does strictly more arithmetic (the twiddle pass).
  EXPECT_GT(r1d.flops, r2d.flops);
  EXPECT_EQ(r1d.flops - r2d.flops, 256u * 6u);
}

}  // namespace
}  // namespace psync::fft
