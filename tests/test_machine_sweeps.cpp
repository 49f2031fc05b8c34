// Parameterized correctness sweeps across machine configurations: every
// (processors, matrix, delivery-blocks) combination must produce a
// numerically correct transform with clean SCA accounting.
#include <gtest/gtest.h>

#include <tuple>

#include "psync/common/rng.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/core/psync_machine.hpp"

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

// ---- P-sync machine grid ----

using PsyncCfg = std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>;

class PsyncSweep : public ::testing::TestWithParam<PsyncCfg> {};

TEST_P(PsyncSweep, Fft2dCorrectAndClean) {
  const auto [procs, rows, cols, k] = GetParam();
  PsyncMachineParams p;
  p.processors = procs;
  p.matrix_rows = rows;
  p.matrix_cols = cols;
  p.delivery_blocks = k;
  p.head.dram.row_switch_cycles = 0;
  PsyncMachine m(p);
  const auto rep =
      m.run_fft2d(random_matrix(rows * cols, procs * 31 + rows + k));
  EXPECT_TRUE(rep.sca_gap_free);
  EXPECT_EQ(rep.sca_collisions, 0u);
  EXPECT_LT(rep.max_error_vs_reference, 1e-4);
  EXPECT_GT(rep.compute_efficiency, 0.0);
  EXPECT_LE(rep.compute_efficiency, 1.0);
  EXPECT_GT(rep.comm_energy_pj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PsyncSweep,
    ::testing::Values(PsyncCfg{2, 8, 8, 1}, PsyncCfg{2, 8, 8, 2},
                      PsyncCfg{4, 16, 32, 1}, PsyncCfg{4, 16, 32, 8},
                      PsyncCfg{8, 32, 16, 2}, PsyncCfg{8, 64, 64, 16},
                      PsyncCfg{16, 32, 128, 4}, PsyncCfg{16, 16, 16, 16},
                      PsyncCfg{32, 64, 32, 8}, PsyncCfg{64, 64, 64, 1}));

TEST_P(PsyncSweep, Fft1dCorrectAndClean) {
  const auto [procs, rows, cols, k] = GetParam();
  PsyncMachineParams p;
  p.processors = procs;
  p.matrix_rows = rows;
  p.matrix_cols = cols;
  p.delivery_blocks = k;
  p.head.dram.row_switch_cycles = 0;
  PsyncMachine m(p);
  const auto rep =
      m.run_fft1d(random_matrix(rows * cols, procs * 57 + cols + k));
  EXPECT_TRUE(rep.sca_gap_free);
  EXPECT_EQ(rep.sca_collisions, 0u);
  EXPECT_LT(rep.max_error_vs_reference, 1e-3);
}

// ---- Mesh machine grid ----

using MeshCfg = std::tuple<std::size_t, std::size_t, std::size_t,
                           std::uint32_t, std::uint32_t>;

class MeshSweep : public ::testing::TestWithParam<MeshCfg> {};

TEST_P(MeshSweep, Fft2dCorrect) {
  const auto [grid, rows, cols, epp, vcs] = GetParam();
  MeshMachineParams p;
  p.grid = grid;
  p.matrix_rows = rows;
  p.matrix_cols = cols;
  p.elements_per_packet = epp;
  p.net.virtual_channels = vcs;
  p.mi.dram.row_switch_cycles = 0;
  MeshMachine m(p);
  const auto rep = m.run_fft2d(random_matrix(rows * cols, grid * 91 + rows));
  EXPECT_LT(rep.max_error_vs_reference, 1e-4);
  EXPECT_GT(rep.comm_energy_pj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MeshSweep,
    ::testing::Values(MeshCfg{2, 8, 8, 4, 1}, MeshCfg{2, 16, 16, 8, 2},
                      MeshCfg{2, 32, 8, 2, 1}, MeshCfg{4, 16, 32, 8, 1},
                      MeshCfg{4, 32, 32, 16, 4}, MeshCfg{4, 64, 16, 4, 2}));

}  // namespace
}  // namespace psync::core
