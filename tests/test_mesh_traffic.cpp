#include "oracle/traffic.hpp"

#include <gtest/gtest.h>

#include <set>

namespace psync::mesh {
namespace {

Mesh make_mesh(std::uint32_t dim) {
  MeshParams p;
  p.width = dim;
  p.height = dim;
  return Mesh(p);
}

TEST(Traffic, PayloadEncodingRoundTrips) {
  const auto p = encode_payload(1023, 0xDEADBEEF);
  EXPECT_EQ(payload_src(p), 1023u);
  EXPECT_EQ(payload_index(p), 0xDEADBEEFu);
}

TEST(Traffic, TransposeWritebackCoversAllSources) {
  Mesh m = make_mesh(4);
  const auto t = transpose_writeback_traffic(m, 5, 16, 4);
  // 15 senders (all but the memory node) x 4 packets each.
  EXPECT_EQ(t.size(), 15u * 4u);
  std::set<NodeId> sources;
  for (const auto& d : t) {
    EXPECT_EQ(d.dst, 5u);
    EXPECT_NE(d.src, 5u);
    EXPECT_EQ(d.payload_flits, 4u);
    sources.insert(d.src);
  }
  EXPECT_EQ(sources.size(), 15u);
}

TEST(Traffic, ScatterMirrorsGather) {
  Mesh m = make_mesh(4);
  const auto t = scatter_traffic(m, 0, 8, 4);
  EXPECT_EQ(t.size(), 15u * 2u);
  for (const auto& d : t) {
    EXPECT_EQ(d.src, 0u);
    EXPECT_NE(d.dst, 0u);
  }
}

TEST(Traffic, UniformRandomValidEndpoints) {
  Mesh m = make_mesh(4);
  Rng rng(1);
  const auto t = uniform_random_traffic(m, 500, 2, rng);
  EXPECT_EQ(t.size(), 500u);
  for (const auto& d : t) {
    EXPECT_LT(d.src, m.nodes());
    EXPECT_LT(d.dst, m.nodes());
    EXPECT_NE(d.src, d.dst);
  }
}

TEST(Traffic, NearestCornerPartitionsTheMesh) {
  Mesh m = make_mesh(4);
  // Each quadrant maps to its own corner.
  EXPECT_EQ(nearest_corner(m, m.node_at(0, 0)), m.node_at(0, 0));
  EXPECT_EQ(nearest_corner(m, m.node_at(1, 1)), m.node_at(0, 0));
  EXPECT_EQ(nearest_corner(m, m.node_at(2, 1)), m.node_at(3, 0));
  EXPECT_EQ(nearest_corner(m, m.node_at(1, 2)), m.node_at(0, 3));
  EXPECT_EQ(nearest_corner(m, m.node_at(3, 3)), m.node_at(3, 3));
}

TEST(Traffic, GatherToCornersExcludesCornersThemselves) {
  Mesh m = make_mesh(4);
  const auto t = gather_to_corners_traffic(m, 8, 4);
  // 16 nodes - 4 corners = 12 senders x 2 packets.
  EXPECT_EQ(t.size(), 12u * 2u);
  for (const auto& d : t) {
    EXPECT_EQ(nearest_corner(m, d.src), d.dst);
  }
}

TEST(Traffic, RejectsIndivisiblePacketization) {
  Mesh m = make_mesh(2);
  EXPECT_DEATH((void)transpose_writeback_traffic(m, 0, 10, 4), "");
}

}  // namespace
}  // namespace psync::mesh
