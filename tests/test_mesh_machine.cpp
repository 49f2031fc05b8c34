#include "psync/core/mesh_machine.hpp"

#include <gtest/gtest.h>

#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/psync_machine.hpp"
#include "transpose_writeback_params.hpp"

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

MeshMachineParams small_params(std::size_t grid, std::size_t rows,
                               std::size_t cols) {
  MeshMachineParams p;
  p.grid = grid;
  p.matrix_rows = rows;
  p.matrix_cols = cols;
  p.elements_per_packet = 8;
  p.mi.dram.row_switch_cycles = 0;
  return p;
}

TEST(MeshMachine, FullFlowNumericallyCorrect) {
  MeshMachine m(small_params(2, 16, 16));
  const auto rep = m.run_fft2d(random_matrix(256, 1));
  EXPECT_LT(rep.max_error_vs_reference, 1e-4);
  EXPECT_GT(rep.total_ns, 0.0);
  ASSERT_EQ(rep.phases.size(), 6u);
  EXPECT_EQ(rep.phases[2].name, "mesh_transpose");
}

TEST(MeshMachine, LargerGridStillCorrect) {
  MeshMachine m(small_params(4, 32, 32));
  const auto rep = m.run_fft2d(random_matrix(1024, 2));
  EXPECT_LT(rep.max_error_vs_reference, 1e-4);
}

TEST(MeshMachine, TransposeWritebackCountsAllElements) {
  MeshMachine m(small_params(4, 64, 64));
  const auto rep = m.run_transpose_writeback(64);
  EXPECT_EQ(rep.elements, 16u * 64u);
  EXPECT_EQ(rep.packets, 16u * 8u);
  EXPECT_GT(rep.completion_cycle, 0);
  // The memory port serializes: completion >= elements * stage cost / ~1.
  EXPECT_GE(rep.cycles_per_element, 1.0);
}

TEST(MeshMachine, TransposeSlowerWithHigherReorderPenalty) {
  auto p1 = small_params(4, 64, 64);
  p1.mi.reorder_cycles_per_element = 1;
  auto p4 = small_params(4, 64, 64);
  p4.mi.reorder_cycles_per_element = 4;
  MeshMachine m1(p1), m4(p4);
  const auto r1 = m1.run_transpose_writeback(64);
  const auto r4 = m4.run_transpose_writeback(64);
  EXPECT_GT(r4.completion_cycle, r1.completion_cycle);
  // t_p=4 adds ~3 extra cycles per element at the serialized interface.
  const double delta = r4.cycles_per_element - r1.cycles_per_element;
  EXPECT_NEAR(delta, 3.0, 0.5);

  // At 16x16 the reorder penalty dominates once large: t_p = 8 costs more
  // than 2.5x the t_p = 1 writeback.
  auto a1 = transpose_writeback_params(16);
  auto a8 = transpose_writeback_params(16);
  a8.mi.reorder_cycles_per_element = 8;
  MeshMachine ma1(a1), ma8(a8);
  const auto c1 = ma1.run_transpose_writeback(256).completion_cycle;
  const auto c8 = ma8.run_transpose_writeback(256).completion_cycle;
  EXPECT_GT(static_cast<double>(c8), 2.5 * static_cast<double>(c1));
}

TEST(MeshMachine, StageModelMatchesSteadyState) {
  // Paper-shaped config at reduced scale: 32-element packets, t_p = 1.
  auto p = small_params(4, 64, 64);
  p.elements_per_packet = 32;
  p.mi.reorder_cycles_per_element = 1;
  MeshMachine m(p);
  const auto rep = m.run_transpose_writeback(256);
  // (33 eject + 32 reorder + 33 write) / 32 ~ 3.06 cycles/element plus
  // drain effects.
  EXPECT_GT(rep.cycles_per_element, 2.9);
  EXPECT_LT(rep.cycles_per_element, 3.7);

  // Each packet pays its header and per-packet stages, so at 16x16 the
  // writeback in 4-element packets takes longer than in 64-element ones.
  auto small_pkts = transpose_writeback_params(16);
  small_pkts.elements_per_packet = 4;
  auto big_pkts = transpose_writeback_params(16);
  big_pkts.elements_per_packet = 64;
  MeshMachine ms(small_pkts), mb(big_pkts);
  EXPECT_GT(ms.run_transpose_writeback(256).completion_cycle,
            mb.run_transpose_writeback(256).completion_cycle);
}

TEST(MeshMachine, MeshReorgCostsMoreThanPsyncSca) {
  // Same problem on both machines: the mesh's reorganization share must
  // exceed P-sync's (the paper's whole point).
  const auto input = random_matrix(32 * 32, 3);

  MeshMachineParams mp = small_params(4, 32, 32);
  MeshMachine mesh(mp);
  const auto mesh_rep = mesh.run_fft2d(input);

  PsyncMachineParams pp;
  pp.processors = 16;
  pp.matrix_rows = 32;
  pp.matrix_cols = 32;
  pp.head.dram.row_switch_cycles = 0;
  PsyncMachine ps(pp);
  const auto ps_rep = ps.run_fft2d(input);

  EXPECT_LT(ps_rep.max_error_vs_reference, 1e-4);
  EXPECT_LT(mesh_rep.max_error_vs_reference, 1e-4);
  EXPECT_GT(mesh_rep.reorg_ns, ps_rep.reorg_ns);
  EXPECT_LT(ps_rep.total_ns, mesh_rep.total_ns);
}

TEST(MeshMachine, InvalidConfigsRejected) {
  EXPECT_THROW(MeshMachine(small_params(3, 16, 16)), SimulationError);
  auto p = small_params(2, 16, 16);
  p.memory_node = 99;
  EXPECT_THROW(MeshMachine{p}, SimulationError);
}

TEST(MeshMachine, ResultsMatchPsyncMachineBitwiseAtFloat32) {
  // Both machines quantize through the same float32 transport; on the same
  // input their final images must agree to float32 rounding.
  const auto input = random_matrix(16 * 16, 4);
  MeshMachine mesh(small_params(2, 16, 16));
  mesh.run_fft2d(input, /*verify=*/false);

  PsyncMachineParams pp;
  pp.processors = 4;
  pp.matrix_rows = 16;
  pp.matrix_cols = 16;
  pp.head.dram.row_switch_cycles = 0;
  PsyncMachine ps(pp);
  ps.run_fft2d(input, /*verify=*/false);

  const auto a = mesh.result();
  const auto b = ps.result();
  ASSERT_EQ(a.size(), b.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_err = std::max(max_err, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(max_err, 1e-3);
}

}  // namespace
}  // namespace psync::core
