#include "psync/core/head_node.hpp"
#include "psync/core/processor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "psync/common/check.hpp"
#include "psync/fft/fft.hpp"

namespace psync::core {
namespace {

TEST(PackSample, RoundTripsAtFloat32Precision) {
  for (double re : {0.0, 1.0, -3.25, 1e-3, 12345.678}) {
    for (double im : {0.0, -1.0, 0.5}) {
      const auto back = unpack_sample(pack_sample({re, im}));
      EXPECT_NEAR(back.real(), re, std::abs(re) * 1e-6 + 1e-9);
      EXPECT_NEAR(back.imag(), im, std::abs(im) * 1e-6 + 1e-9);
    }
  }
}

TEST(PackSample, ExactForFloatRepresentable) {
  const auto w = pack_sample({1.5, -2.25});
  const auto v = unpack_sample(w);
  EXPECT_EQ(v.real(), 1.5);
  EXPECT_EQ(v.imag(), -2.25);
}

TEST(ExecCost, PaperMultiplyAccounting) {
  ExecCostParams exec;  // 2 ns multiply, 4 mults per butterfly
  fft::OpCount ops;
  ops.butterflies = 10;
  ops.real_mults = 40;
  ops.real_adds = 60;
  // 10 butterflies * 4 mults * 2 ns = 80 ns; adds are free by default.
  EXPECT_DOUBLE_EQ(exec.compute_ns(ops), 80.0);
  EXPECT_DOUBLE_EQ(exec.peak_mults_per_sec(), 0.5e9);
}

TEST(Processor, FftRowsComputesAndTimes) {
  Processor p(0, ExecCostParams{});
  std::vector<std::complex<double>> mem(2 * 64, {0.0, 0.0});
  mem[0] = {1.0, 0.0};   // impulse in row 0
  mem[64] = {1.0, 0.0};  // impulse in row 1
  const double ns = p.fft_rows(mem, 2, 64);
  // 2 rows x full_fft_mults(64) = 2 * 2*64*6 = 1536 mults * 2 ns.
  EXPECT_DOUBLE_EQ(ns, 3072.0);
  EXPECT_DOUBLE_EQ(p.busy_ns(), 3072.0);
  EXPECT_EQ(p.ops().real_mults, 1536u);
  // Impulse -> flat spectrum in both rows.
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_NEAR(mem[i].real(), 1.0, 1e-12);
  }
}

TEST(Processor, StagedExecutionEqualsMonolithic) {
  Processor a(0, ExecCostParams{}), b(1, ExecCostParams{});
  std::vector<std::complex<double>> sig(64);
  for (std::size_t i = 0; i < 64; ++i) {
    sig[i] = {std::sin(0.1 * static_cast<double>(i)), 0.0};
  }
  std::vector<std::complex<double>> a_mem = sig;
  std::vector<std::complex<double>> b_mem = sig;
  a.fft_rows(a_mem, 1, 64);

  const fft::FftPlan plan(64);
  // b: bit-reverse, then stages in two chunks (block-less).
  b.fft_row_stages(b_mem, plan, 0, 64, 0, 3, 0, 0, /*prepare=*/true);
  b.fft_row_stages(b_mem, plan, 0, 64, 3, 6);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(a_mem[i] - b_mem[i]), 0.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(a.busy_ns(), b.busy_ns());
}

TEST(HeadNode, BusCycleAndStreamReport) {
  HeadNodeParams hp;
  hp.bus_ghz = 5.0;
  hp.waveguide_gbps = 320.0;
  hp.dram.row_switch_cycles = 0;
  HeadNode head(hp);
  EXPECT_DOUBLE_EQ(head.bus_cycle_ns(), 0.2);

  // 2^20 samples x 64 bits: the paper's transpose. 32768 rows x 33 cycles.
  const auto rep = head.stream_rows_report(1ULL << 26);
  EXPECT_EQ(rep.bus_cycles, 1'081'344u);
  EXPECT_NEAR(rep.dram_ns, 1'081'344 * 0.2, 1e-6);
  EXPECT_NEAR(rep.waveguide_ns, static_cast<double>(1ULL << 26) / 320.0, 1e-6);
  // 33/32 header overhead makes DRAM the (slightly) binding side.
  EXPECT_TRUE(rep.dram_bound);
}

TEST(HeadNode, WritebackStoresImageAndReadsBack) {
  HeadNodeParams hp;
  hp.dram.row_switch_cycles = 0;
  HeadNode head(hp);
  std::vector<Word> words(64);
  for (std::size_t i = 0; i < 64; ++i) words[i] = 7000 + i;
  head.writeback(words, /*first_row=*/2, /*word_bits=*/64);
  // Row 2 of 2048-bit rows = word offset 64.
  ASSERT_EQ(head.image().size(), 128u);
  const std::vector<Word> row2(head.image().begin() + 64, head.image().end());
  EXPECT_EQ(row2, words);
}

TEST(HeadNode, InvalidRatesRejected) {
  HeadNodeParams hp;
  hp.bus_ghz = 0.0;
  EXPECT_THROW(HeadNode{hp}, SimulationError);
}

}  // namespace
}  // namespace psync::core
