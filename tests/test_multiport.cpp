#include <gtest/gtest.h>

#include "psync/common/check.hpp"
#include "psync/core/mesh_machine.hpp"
#include "transpose_writeback_params.hpp"

namespace psync::core {
namespace {

TEST(Multiport, AllElementsLandAcrossPorts) {
  MeshMachine m(transpose_writeback_params(8));
  const auto rep = m.run_transpose_writeback_multiport(256, 4);
  EXPECT_EQ(rep.elements, 64ULL * 256);
  EXPECT_EQ(rep.packets, 64ULL * 8);
}

TEST(Multiport, OnePortMatchesSinglePortPath) {
  MeshMachine a(transpose_writeback_params(8));
  MeshMachine b(transpose_writeback_params(8));
  const auto single = a.run_transpose_writeback(256);
  const auto multi = b.run_transpose_writeback_multiport(256, 1);
  EXPECT_EQ(single.elements, multi.elements);
  // Same port count, same bottleneck: completion within a few percent (the
  // traffic layouts differ only in packet tags).
  const double rel = static_cast<double>(multi.completion_cycle) /
                     static_cast<double>(single.completion_cycle);
  EXPECT_GT(rel, 0.95);
  EXPECT_LT(rel, 1.05);
}

TEST(Multiport, MorePortsCutCompletionNearLinearly) {
  std::int64_t cycles[3];
  int i = 0;
  for (std::uint32_t ports : {1u, 2u, 4u}) {
    MeshMachine m(transpose_writeback_params(8));
    cycles[i++] = m.run_transpose_writeback_multiport(256, ports).completion_cycle;
  }
  // Port-bound workload: 2 ports ~2x, 4 ports ~4x (within 35% for network
  // effects — the corners also get closer to their sources).
  EXPECT_GT(static_cast<double>(cycles[0]) / static_cast<double>(cycles[1]),
            1.6);
  EXPECT_GT(static_cast<double>(cycles[1]) / static_cast<double>(cycles[2]),
            1.6);
}

TEST(Multiport, StillSlowerThanPscanAtEqualAggregateBandwidth) {
  // The paper's framing: even with 4-way memory parallelism, the mesh's
  // per-port stage costs keep it behind a single PSCAN at equal aggregate
  // bandwidth. 4 ports x 1 flit/cycle = 4x the PSCAN's 64-bit bus rate, so
  // normalize: PSCAN optimum for this problem is elements*33/32 cycles at
  // 1 word/cycle; the 4-port mesh serves elements/4 per port at ~3 cycles
  // per element -> still ~0.75 elements/cycle aggregate < 1. Holds at 8x8
  // and on the 16x16 mesh of the Table III ablations.
  for (const std::size_t grid : {8, 16}) {
    MeshMachine m(transpose_writeback_params(grid));
    const auto rep = m.run_transpose_writeback_multiport(256, 4);
    const double aggregate_cycles_per_element =
        static_cast<double>(rep.completion_cycle) /
        static_cast<double>(rep.elements) * 4.0;
    EXPECT_GT(aggregate_cycles_per_element, 33.0 / 32.0) << "grid " << grid;
  }
}

TEST(Multiport, RejectsBadPortCounts) {
  MeshMachine m(transpose_writeback_params(4));
  EXPECT_THROW((void)m.run_transpose_writeback_multiport(256, 3),
               SimulationError);
}

}  // namespace
}  // namespace psync::core
