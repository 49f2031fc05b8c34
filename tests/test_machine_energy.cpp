// End-to-end energy accounting across the machine simulators (extension
// experiment grounded in the paper's Fig. 5 models).
#include <gtest/gtest.h>

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

TEST(MachineEnergy, PsyncReportsPositiveBreakdown) {
  PsyncMachineParams p;
  p.processors = 8;
  p.matrix_rows = 32;
  p.matrix_cols = 32;
  p.head.dram.row_switch_cycles = 0;
  PsyncMachine m(p);
  const auto rep = m.run_fft2d(random_matrix(1024, 1), false);
  EXPECT_GT(rep.comm_energy_pj, 0.0);
  EXPECT_GT(rep.compute_energy_pj, 0.0);
  EXPECT_GT(rep.pj_per_flop(), 0.0);
  // Sanity scale: FFT compute is ~mults * 20 pJ.
  EXPECT_NEAR(rep.compute_energy_pj,
              static_cast<double>(rep.flops) * 20.0 * 0.4 /* mult share */,
              rep.compute_energy_pj * 0.8);
}

TEST(MachineEnergy, PsyncCommEnergyScalesWithWordsMoved) {
  PsyncMachineParams p;
  p.processors = 8;
  p.matrix_rows = 32;
  p.matrix_cols = 32;
  p.head.dram.row_switch_cycles = 0;
  PsyncMachine small(p);
  const auto a = small.run_fft2d(random_matrix(1024, 2), false);
  p.matrix_cols = 64;
  PsyncMachine big(p);
  const auto b = big.run_fft2d(random_matrix(2048, 3), false);
  EXPECT_NEAR(b.comm_energy_pj / a.comm_energy_pj, 2.0, 0.05);
}

TEST(MachineEnergy, MeshReportsActivityBasedEnergy) {
  MeshMachineParams p;
  p.grid = 2;
  p.matrix_rows = 16;
  p.matrix_cols = 16;
  p.elements_per_packet = 8;
  p.mi.dram.row_switch_cycles = 0;
  MeshMachine m(p);
  const auto rep = m.run_fft2d(random_matrix(256, 4), false);
  EXPECT_GT(rep.comm_energy_pj, 0.0);
  EXPECT_GT(rep.compute_energy_pj, 0.0);
}

TEST(MachineEnergy, PsyncTransportCheaperThanMeshAtSameWorkload) {
  // The Fig. 5 result carried through to the full application: the same 2D
  // FFT moves the same words, but the mesh pays per-hop buffer/crossbar/
  // link energy while the PSCAN pays a near-flat per-bit cost. Run at
  // 32x32 (8-element packets, Model I) and at 64x64 (32-element packets,
  // k = 4), both on 16 processors; at 64x64 P-sync must also win on total
  // energy and on end-to-end time.
  const struct {
    std::size_t dim;
    std::uint32_t elements_per_packet;
    std::size_t blocks;
    std::uint64_t seed;
  } cases[] = {{32, 8, 1, 5}, {64, 32, 4, 11}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::to_string(c.dim) + "x" + std::to_string(c.dim));
    const auto input = random_matrix(c.dim * c.dim, c.seed);

    PsyncMachineParams pp;
    pp.processors = 16;
    pp.matrix_rows = c.dim;
    pp.matrix_cols = c.dim;
    pp.delivery_blocks = c.blocks;
    pp.head.dram.row_switch_cycles = 0;
    PsyncMachine psm(pp);
    const auto pr = psm.run_fft2d(input, false);

    MeshMachineParams mp;
    mp.grid = 4;
    mp.matrix_rows = c.dim;
    mp.matrix_cols = c.dim;
    mp.elements_per_packet = c.elements_per_packet;
    mp.mi.dram.row_switch_cycles = 0;
    MeshMachine msm(mp);
    const auto mr = msm.run_fft2d(input, false);

    EXPECT_GT(mr.comm_energy_pj, 2.0 * pr.comm_energy_pj);
    // Compute energy is identical work on identical execution units.
    EXPECT_NEAR(mr.compute_energy_pj, pr.compute_energy_pj,
                pr.compute_energy_pj * 0.01);
    if (c.dim == 64) {
      EXPECT_GT(mr.total_energy_pj(), pr.total_energy_pj());
      EXPECT_LT(pr.total_ns, mr.total_ns);
    }
  }
}

}  // namespace
}  // namespace psync::core
