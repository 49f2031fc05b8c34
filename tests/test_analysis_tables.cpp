// Regression tests pinning the analysis library to the paper's printed
// numbers: Table I, Table II, Table III and the Fig. 11 crossover.
#include <gtest/gtest.h>

#include "oracle/transpose_model.hpp"
#include "psync/analysis/fft_model.hpp"
#include "psync/analysis/mesh_model.hpp"

namespace psync::analysis {
namespace {

TEST(Table1, ReproducesEveryPaperRow) {
  const FftWorkload w;  // paper defaults
  const auto rows = table1(w, 64);
  ASSERT_EQ(rows.size(), 7u);

  const struct {
    std::uint64_t k, s_b;
    double t_ck, t_cf, w_p, eta_pct;
  } paper[] = {
      {1, 1024, 40960, 0, 409.6, 50.00},
      {2, 512, 18432, 4096, 455.1, 68.97},
      {4, 256, 8192, 8192, 512.0, 83.33},
      {8, 128, 3584, 12288, 585.1, 91.95},
      {16, 64, 1536, 16384, 682.7, 96.39},
      {32, 32, 640, 20480, 819.2, 98.46},
      {64, 16, 256, 24576, 1024.0, 99.38},
  };
  for (std::size_t i = 0; i < 7; ++i) {
    SCOPED_TRACE("k=" + std::to_string(paper[i].k));
    EXPECT_EQ(rows[i].k, paper[i].k);
    EXPECT_EQ(rows[i].block_size, paper[i].s_b);
    EXPECT_DOUBLE_EQ(rows[i].t_ck_ns.value(), paper[i].t_ck);
    EXPECT_DOUBLE_EQ(rows[i].t_cf_ns.value(), paper[i].t_cf);
    EXPECT_NEAR(rows[i].bandwidth_gbps.value(), paper[i].w_p, 0.05);
    EXPECT_NEAR(rows[i].efficiency * 100.0, paper[i].eta_pct, 0.005);
  }
}

TEST(Table1, OpCountsTieToFftLibraryFormulas) {
  const FftWorkload w;
  EXPECT_EQ(block_mults(w, 1), 20480u);
  EXPECT_EQ(block_mults(w, 8), 2ull * 128 * 7);
  EXPECT_EQ(final_mults(w, 8), 2ull * 1024 * 3);
}

TEST(Table2, ReproducesEveryPaperRow) {
  const FftWorkload w;
  const MeshDeliveryParams mesh;  // t_r = 1
  const auto rows = table2(w, mesh, 64);
  ASSERT_EQ(rows.size(), 7u);

  const struct {
    std::uint64_t k;
    double eta_d_pct, eta_pct;
  } paper[] = {
      {1, 98.46, 49.23}, {2, 96.97, 66.88},  {4, 94.12, 78.43},
      {8, 88.89, 81.74}, {16, 80.00, 77.11}, {32, 66.67, 65.64},
      {64, 50.01, 49.70},
  };
  for (std::size_t i = 0; i < 7; ++i) {
    SCOPED_TRACE("k=" + std::to_string(paper[i].k));
    EXPECT_EQ(rows[i].k, paper[i].k);
    EXPECT_NEAR(rows[i].delivery_efficiency * 100.0, paper[i].eta_d_pct, 0.05);
    EXPECT_NEAR(rows[i].compute_efficiency * 100.0, paper[i].eta_pct, 0.35);
  }
}

TEST(Table2, MeshPeaksAtK8) {
  // The paper: "compute efficiency peaks at 82% when k = 8".
  const FftWorkload w;
  const MeshDeliveryParams mesh;
  const auto rows = table2(w, mesh, 64);
  std::uint64_t best_k = 0;
  double best = 0.0;
  for (const auto& r : rows) {
    if (r.compute_efficiency > best) {
      best = r.compute_efficiency;
      best_k = r.k;
    }
  }
  EXPECT_EQ(best_k, 8u);
  EXPECT_NEAR(best * 100.0, 82.0, 1.0);
}

TEST(Table2, DeliveryCyclesFollowEq21) {
  // P*F + P*sqrt(P)*t_r for P=256, F=1024: 256*1024 + 256*16.
  EXPECT_DOUBLE_EQ(mesh_delivery_cycles(256, 1024, 1.0),
                   256.0 * 1024.0 + 256.0 * 16.0);
}

TEST(Fig11, PsyncMonotoneMeshPeaksAndCrosses) {
  const FftWorkload w;
  const MeshDeliveryParams mesh;
  const auto pts = fig11(w, mesh, 64);
  ASSERT_EQ(pts.size(), 7u);
  // P-sync tracks the zero-latency bound: monotone increasing in k.
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].psync, pts[i - 1].psync);
  }
  // ... and approaches ideal: above 99% at k = 64.
  EXPECT_GT(pts[6].psync, 0.99);
  // The mesh rises then falls; at k=64 the gap is ~2x.
  EXPECT_GT(pts[3].mesh, pts[0].mesh);
  EXPECT_LT(pts[6].mesh, pts[3].mesh);
  EXPECT_GT(pts[6].psync / pts[6].mesh, 1.9);
  // P-sync dominates the mesh at every k.
  for (const auto& p : pts) EXPECT_GT(p.psync, p.mesh);
}

TEST(Table3, PscanWritebackIs1081344Cycles) {
  const TransposeParams p;  // paper defaults
  EXPECT_EQ(transactions(p), 32768u);
  EXPECT_EQ(transaction_cycles(p), 33u);
  EXPECT_EQ(pscan_writeback_cycles(p), kPaperPscanCycles);
}

TEST(Table3, MeshEstimateLandsInPaperBand) {
  const TransposeParams p;
  // t_p = 1: paper 3,526,620 (3.26x); stage model gives ~3.0-3.3x.
  const auto tp1 = mesh_writeback_cycles_estimate(p, 1);
  const double mult1 =
      static_cast<double>(tp1) / static_cast<double>(kPaperPscanCycles);
  EXPECT_GT(mult1, 2.7);
  EXPECT_LT(mult1, 3.5);
  // t_p = 4: paper 6,553,448 (6.06x).
  const auto tp4 = mesh_writeback_cycles_estimate(p, 4);
  const double mult4 =
      static_cast<double>(tp4) / static_cast<double>(kPaperPscanCycles);
  EXPECT_GT(mult4, 5.4);
  EXPECT_LT(mult4, 6.5);
}

TEST(Table3, ScalesWithProblemSize) {
  TransposeParams p;
  p.processors = 256;
  p.row_samples = 256;
  const auto small = pscan_writeback_cycles(p);
  p.processors = 1024;
  p.row_samples = 1024;
  EXPECT_EQ(pscan_writeback_cycles(p), small * 16);
}

}  // namespace
}  // namespace psync::analysis
