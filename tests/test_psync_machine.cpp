#include "psync/core/psync_machine.hpp"

#include <gtest/gtest.h>

#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/fft/fft2d.hpp"

namespace psync::core {
namespace {

std::vector<std::complex<double>> random_matrix(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> m(n);
  for (auto& v : m) {
    v = {rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0};
  }
  return m;
}

PsyncMachineParams small_params(std::size_t procs, std::size_t rows,
                                std::size_t cols, std::size_t k = 1) {
  PsyncMachineParams p;
  p.processors = procs;
  p.matrix_rows = rows;
  p.matrix_cols = cols;
  p.delivery_blocks = k;
  p.head.dram.row_switch_cycles = 0;
  return p;
}

// The P-sync ablation configuration: 16 processors, a 64x512 matrix of
// constant samples, Model I delivery.
PsyncMachineParams ablation_params() { return small_params(16, 64, 512); }

std::vector<std::complex<double>> ablation_input() {
  return std::vector<std::complex<double>>(64 * 512, {1.0, -0.5});
}

TEST(PsyncMachine, FullFlowNumericallyCorrectModelI) {
  PsyncMachine m(small_params(8, 32, 64));
  const auto input = random_matrix(32 * 64, 1);
  const auto rep = m.run_fft2d(input);
  EXPECT_TRUE(rep.sca_gap_free);
  EXPECT_EQ(rep.sca_collisions, 0u);
  // Float32 transport bounds the error.
  EXPECT_LT(rep.max_error_vs_reference, 1e-4);
  EXPECT_GT(rep.total_ns, 0.0);
}

class PsyncModelII : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PsyncModelII, BlockedDeliveryStillCorrect) {
  const std::size_t k = GetParam();
  PsyncMachine m(small_params(4, 16, 64, k));
  const auto input = random_matrix(16 * 64, 2 + k);
  const auto rep = m.run_fft2d(input);
  EXPECT_TRUE(rep.sca_gap_free);
  EXPECT_LT(rep.max_error_vs_reference, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Blocks, PsyncModelII,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(PsyncMachine, ModelIIOverlapImprovesEfficiency) {
  // The whole point of Model II: delivery overlaps compute, so the same
  // problem at k=8 must beat k=1 in compute efficiency.
  const auto input = random_matrix(16 * 1024, 3);
  PsyncMachine m1(small_params(16, 16, 1024, 1));
  PsyncMachine m8(small_params(16, 16, 1024, 8));
  const auto r1 = m1.run_fft2d(input);
  const auto r8 = m8.run_fft2d(input);
  EXPECT_GT(r8.compute_efficiency, r1.compute_efficiency);
  EXPECT_LT(r8.total_ns, r1.total_ns);

  // The same on the 64x512 ablation matrix, with every k of the sweep
  // verified correct and gap-free.
  double eff1 = 0.0;
  double eff8 = 0.0;
  for (const std::size_t k : {1, 2, 4, 8, 16}) {
    auto p = ablation_params();
    p.delivery_blocks = k;
    PsyncMachine m(p);
    const auto rep = m.run_fft2d(ablation_input());
    EXPECT_LT(rep.max_error_vs_reference, 1e-4) << "k = " << k;
    EXPECT_TRUE(rep.sca_gap_free) << "k = " << k;
    if (k == 1) eff1 = rep.compute_efficiency;
    if (k == 8) eff8 = rep.compute_efficiency;
  }
  EXPECT_GT(eff8, eff1);
}

TEST(PsyncMachine, PhasesOrderedAndAccounted) {
  PsyncMachine m(small_params(4, 16, 16));
  const auto rep = m.run_fft2d(random_matrix(256, 4));
  ASSERT_EQ(rep.phases.size(), 6u);
  EXPECT_EQ(rep.phases[0].name, "scatter_rows");
  EXPECT_EQ(rep.phases[2].name, "sca_transpose");
  EXPECT_EQ(rep.phases[5].name, "sca_writeback");
  // Non-overlapping sequential phases end in order.
  EXPECT_LE(rep.phases[0].end_ns, rep.phases[2].end_ns);
  EXPECT_LE(rep.phases[2].end_ns, rep.phases[4].end_ns);
  EXPECT_DOUBLE_EQ(rep.total_ns, rep.phases[5].end_ns);
  EXPECT_GT(rep.reorg_ns, 0.0);
  EXPECT_GT(rep.flops, 0u);
  // phase() accessor finds by name and throws otherwise.
  EXPECT_EQ(rep.phase("row_ffts").name, "row_ffts");
  EXPECT_THROW((void)rep.phase("nope"), SimulationError);
}

TEST(PsyncMachine, EfficiencyMatchesModelIPrediction) {
  // Model I: eta = t_c / (P*t_d + t_c) for ONE pass. Configure so DRAM is
  // not binding and flight time is negligible, then compare the machine's
  // pass-1 window to the analytic value.
  auto p = small_params(8, 8, 1024);  // one row per processor
  p.bus_length_cm = 0.1;              // negligible flight
  PsyncMachine m(p);
  const auto rep = m.run_fft2d(random_matrix(8 * 1024, 5));

  // t_c = 40960 ns (1024-pt FFT at 2 ns/multiply); t_d per proc = 1024
  // slots * 0.2 ns.
  const double t_c = 40960.0;
  const double t_d = 1024 * 0.2;
  const double eta_pred = t_c / (8.0 * t_d + t_c);
  const auto& sc = rep.phase("scatter_rows");
  const auto& ff = rep.phase("row_ffts");
  const double window = ff.end_ns - sc.start_ns;
  const double eta_meas = t_c / window;
  EXPECT_NEAR(eta_meas, eta_pred, 0.02);

  // Bandwidth balance (Eq. 19/20): on the ablation machine a 640 Gb/s
  // waveguide delivers faster than an 80 Gb/s one, so efficiency rises.
  auto slow = ablation_params();
  slow.waveguide_gbps = 80.0;
  auto fast = ablation_params();
  fast.waveguide_gbps = 640.0;
  PsyncMachine ms(slow), mf(fast);
  EXPECT_GT(mf.run_fft2d(ablation_input(), false).compute_efficiency,
            ms.run_fft2d(ablation_input(), false).compute_efficiency);
}

TEST(PsyncMachine, TransposePhaseMatchesEq23Eq24Timing) {
  // DRAM-bound SCA transpose: duration ~= transactions * t_t * bus cycle.
  auto p = small_params(16, 64, 64);
  p.bus_length_cm = 0.1;
  PsyncMachine m(p);
  const auto rep = m.run_fft2d(random_matrix(64 * 64, 6));
  const auto& tr = rep.phase("sca_transpose");
  // 64*64 samples * 64 bits / 2048 = 128 rows * 33 cycles * 0.2 ns.
  EXPECT_NEAR(tr.duration_ns(), 128 * 33 * 0.2, 1.0);

  // t_t / S_r shrinks with the row size: on the ablation machine 8192-bit
  // DRAM rows finish the transpose sooner than 512-bit rows.
  auto small_rows = ablation_params();
  small_rows.head.dram.row_size_bits = 512;
  auto big_rows = ablation_params();
  big_rows.head.dram.row_size_bits = 8192;
  PsyncMachine msr(small_rows), mbr(big_rows);
  EXPECT_LT(mbr.run_fft2d(ablation_input(), false)
                .phase("sca_transpose")
                .duration_ns(),
            msr.run_fft2d(ablation_input(), false)
                .phase("sca_transpose")
                .duration_ns());
}

TEST(PsyncMachine, BusLengthIsPipelineFillNotRate) {
  // Distance independence: a 64x longer waveguide (0.5 -> 32 cm) adds only
  // flight time per collective, under 1% of the total.
  auto near = ablation_params();
  near.bus_length_cm = 0.5;
  auto far = ablation_params();
  far.bus_length_cm = 32.0;
  PsyncMachine mn(near), mf(far);
  const double t_near = mn.run_fft2d(ablation_input(), false).total_ns;
  const double t_far = mf.run_fft2d(ablation_input(), false).total_ns;
  EXPECT_LT((t_far - t_near) / t_near, 0.01);
}

TEST(PsyncMachine, ResultLayoutIsTransposed) {
  PsyncMachine m(small_params(4, 8, 16));
  auto input = random_matrix(8 * 16, 7);
  m.run_fft2d(input, /*verify=*/false);
  const auto got = m.result();  // 16 x 8, row-major
  std::vector<std::complex<double>> ref(input);
  fft::fft2d(ref, 8, 16, /*restore_layout=*/true);  // 8 x 16 natural
  double max_err = 0.0;
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      max_err = std::max(max_err, std::abs(got[c * 8 + r] - ref[r * 16 + c]));
    }
  }
  EXPECT_LT(max_err, 1e-3);
}

TEST(PsyncMachine, InvalidConfigsRejected) {
  EXPECT_THROW(PsyncMachine(small_params(3, 16, 16)), SimulationError);
  EXPECT_THROW(PsyncMachine(small_params(4, 20, 16)), SimulationError);
  auto p = small_params(4, 16, 16);
  p.delivery_blocks = 3;
  EXPECT_THROW(PsyncMachine{p}, SimulationError);
  p.delivery_blocks = 64;  // > cols
  EXPECT_THROW(PsyncMachine{p}, SimulationError);
}

TEST(PsyncMachine, GflopsConsistentWithFlopsAndTime) {
  PsyncMachine m(small_params(4, 16, 16));
  const auto rep = m.run_fft2d(random_matrix(256, 8));
  EXPECT_NEAR(rep.gflops,
              static_cast<double>(rep.flops) / rep.total_ns, 1e-9);
}

}  // namespace
}  // namespace psync::core
