#include "psync/mesh/energy_orion.hpp"

#include <gtest/gtest.h>

#include "oracle/traffic.hpp"

namespace psync::mesh {
namespace {

TEST(Orion, HopLengthShrinksWithMeshDim) {
  OrionParams p;  // 20 mm die
  EXPECT_DOUBLE_EQ(hop_length_mm(p, 4), 5.0);
  EXPECT_DOUBLE_EQ(hop_length_mm(p, 20), 1.0);
}

TEST(Orion, RepeatersInverselyRelatedToNodeCount) {
  // Paper Section III-C: "the link-repeater stages are inversely related to
  // the number of network nodes" at fixed die size.
  OrionParams p;
  EXPECT_GT(repeaters_per_link(p, 2), repeaters_per_link(p, 16));
  EXPECT_EQ(repeaters_per_link(p, 20), 1u);
  EXPECT_EQ(repeaters_per_link(p, 2), 10u);
}

TEST(Orion, PerHopEnergyDropsWithShorterLinks) {
  OrionParams p;
  EXPECT_GT(per_hop_flit_pj(p, 2), per_hop_flit_pj(p, 8));
}

TEST(Orion, EstimateScalesLinearlyWithHops) {
  OrionParams p;
  const double one = estimate_pj_per_bit(p, 8, 1.0);
  const double four = estimate_pj_per_bit(p, 8, 4.0);
  EXPECT_NEAR(four, 4.0 * one, 1e-12);
}

TEST(Orion, HeaderOverheadInflatesEnergy) {
  OrionParams p;
  EXPECT_GT(estimate_pj_per_bit(p, 8, 4.0, 33.0 / 32.0),
            estimate_pj_per_bit(p, 8, 4.0, 1.0));
}

TEST(Orion, EvaluateFromSimulatedActivity) {
  MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  Mesh m(mp);
  const auto traffic = gather_to_corners_traffic(m, 16, 4);
  std::uint64_t payload_bits = 0;
  for (const auto& d : traffic) {
    payload_bits += static_cast<std::uint64_t>(d.payload_flits) * 64;
    m.inject(d);
  }
  ASSERT_TRUE(m.run_until_drained(100000));

  OrionParams p;
  p.flit_bits = 64;
  const auto rep = evaluate(p, m.activity(), 4, payload_bits);
  EXPECT_GT(rep.total_pj.value(), 0.0);
  EXPECT_GT(rep.pj_per_bit, 0.0);
  EXPECT_NEAR(rep.total_pj.value(), (rep.router_pj + rep.link_pj).value(),
              1e-9);
  // Links dominate at this die size with repeated global wires.
  EXPECT_GT(rep.link_pj.value(), 0.0);
}

TEST(Orion, EnergyPerBitGrowsWithMeshSizeForGatherTraffic) {
  // Bigger meshes mean more hops to the corner; per-hop link shortening
  // does not offset the hop growth for router energy.
  OrionParams p;
  double prev = 0.0;
  for (std::size_t dim : {2, 4, 8, 16}) {
    const double hops = static_cast<double>(dim) / 2.0;
    const double e = estimate_pj_per_bit(p, dim, hops, 33.0 / 32.0);
    if (prev > 0.0) {
      EXPECT_GT(e, prev * 0.8);  // roughly non-decreasing
    }
    prev = e;
  }
}

}  // namespace
}  // namespace psync::mesh
