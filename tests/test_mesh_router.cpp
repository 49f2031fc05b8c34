#include "psync/mesh/mesh.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "oracle/traffic.hpp"
#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/mesh_machine.hpp"
#include "transpose_writeback_params.hpp"

namespace psync::mesh {
namespace {

MeshParams small(std::uint32_t dim = 4) {
  MeshParams p;
  p.width = dim;
  p.height = dim;
  p.buffer_depth = 2;
  p.route_delay = 1;
  return p;
}

// Hop count of the minimal route from a to b.
std::uint32_t manhattan(const Mesh& m, NodeId a, NodeId b) {
  const auto dx = static_cast<std::int64_t>(m.x_of(a)) - m.x_of(b);
  const auto dy = static_cast<std::int64_t>(m.y_of(a)) - m.y_of(b);
  return static_cast<std::uint32_t>(std::abs(dx) + std::abs(dy));
}

// Completion cycle of the 16x16 Table III ablation writeback (256 elements
// per node) over router configuration `net`; the machine sets the mesh
// dimensions from its grid.
std::int64_t machine_writeback_cycles(const MeshParams& net) {
  auto mp = core::transpose_writeback_params(16);
  mp.net = net;
  core::MeshMachine machine(mp);
  return machine.run_transpose_writeback(256).completion_cycle;
}

TEST(Mesh, GeometryHelpers) {
  Mesh m(small(4));
  EXPECT_EQ(m.nodes(), 16u);
  EXPECT_EQ(m.node_at(3, 2), 11u);
  EXPECT_EQ(m.x_of(11), 3u);
  EXPECT_EQ(m.y_of(11), 2u);
  EXPECT_EQ(manhattan(m, m.node_at(0, 0), m.node_at(3, 2)), 5u);
}

TEST(Mesh, SingleFlitPacketDelivered) {
  Mesh m(small());
  ConsumeSink sink;
  sink.keep_log(true);
  m.set_sink(m.node_at(3, 3), &sink);

  PacketDesc d;
  d.src = m.node_at(0, 0);
  d.dst = m.node_at(3, 3);
  d.payload_flits = 0;  // head-tail only
  m.inject(d);
  ASSERT_TRUE(m.run_until_drained(1000));
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(sink.flits(), 1u);
}

TEST(Mesh, LatencyLowerBoundHopsPlusRouting) {
  // Head flit pays (1 link + t_r) per hop; latency >= hops * (1 + t_r).
  Mesh m(small());
  PacketDesc d;
  d.src = m.node_at(0, 0);
  d.dst = m.node_at(3, 3);
  d.payload_flits = 4;
  m.inject(d);
  ASSERT_TRUE(m.run_until_drained(1000));
  const auto hops = manhattan(m, d.src, d.dst);
  // Tail trails head by payload_flits cycles once the path is set up.
  const double expected_min = hops * 2.0 + 4.0;
  EXPECT_GE(m.packet_latency().mean(), expected_min);
  // And in an empty network it should be close to the bound.
  EXPECT_LE(m.packet_latency().mean(), expected_min + 6.0);

  // Table II's Eq. 21 overhead on the paper's 16x16 mesh: a lone packet of
  // F flits corner to corner (H = 30 hops) takes F + (H+1)(1+t_r) cycles,
  // to within 4, with t_r = 1 charged once per traversed router.
  for (std::uint32_t flits : {16u, 64u, 256u}) {
    MeshParams p;
    p.width = 16;
    p.height = 16;
    Mesh net(p);
    PacketDesc lone;
    lone.src = net.node_at(0, 0);
    lone.dst = net.node_at(15, 15);
    lone.payload_flits = flits;
    net.inject(lone);
    ASSERT_TRUE(net.run_until_drained(100000));
    ASSERT_EQ(manhattan(net, lone.src, lone.dst), 30u);
    EXPECT_NEAR(net.packet_latency().mean(), flits + 31.0 * 2.0, 4.0)
        << "F = " << flits;
  }
}

TEST(Mesh, ZeroRouteDelayIsFaster) {
  auto p = small();
  p.route_delay = 0;
  Mesh fast(p);
  p.route_delay = 3;
  Mesh slow(p);
  for (Mesh* m : {&fast, &slow}) {
    PacketDesc d;
    d.src = m->node_at(0, 0);
    d.dst = m->node_at(3, 0);
    d.payload_flits = 2;
    m->inject(d);
    ASSERT_TRUE(m->run_until_drained(1000));
  }
  // Every router on the path (source, 2 intermediate, destination) charges
  // t_r for the header: 4 routers * (3 - 0) = 12 extra cycles.
  EXPECT_NEAR(slow.packet_latency().mean() - fast.packet_latency().mean(),
              12.0, 1e-9);
}

TEST(Mesh, AllPacketsDeliveredExactlyOnceUniformRandom) {
  Mesh m(small(4));
  std::vector<ConsumeSink> sinks(m.nodes());
  for (NodeId n = 0; n < m.nodes(); ++n) {
    sinks[n].keep_log(true);
    m.set_sink(n, &sinks[n]);
  }
  Rng rng(99);
  const auto traffic = uniform_random_traffic(m, 200, 3, rng);
  for (const auto& d : traffic) m.inject(d);
  ASSERT_TRUE(m.run_until_drained(100000));

  // Each packet's payload words appear exactly once, at the right node.
  std::map<std::uint64_t, int> seen;
  for (NodeId n = 0; n < m.nodes(); ++n) {
    for (const auto& f : sinks[n].log()) {
      if (f.is_head() && !f.is_tail()) continue;
      EXPECT_EQ(f.dst, n) << "flit ejected at wrong node";
      ++seen[f.payload ^ (static_cast<std::uint64_t>(f.packet) << 40)];
    }
  }
  std::uint64_t total = 0;
  for (const auto& [k, v] : seen) {
    EXPECT_EQ(v, 1);
    total += static_cast<std::uint64_t>(v);
  }
  EXPECT_EQ(total, 200u * 3u);
  EXPECT_EQ(m.activity().ejected_packets, 200u);
  EXPECT_EQ(m.activity().injected_flits, m.activity().ejected_flits);
}

TEST(Mesh, WormholeFlitsStayInOrder) {
  Mesh m(small());
  ConsumeSink sink;
  sink.keep_log(true);
  m.set_sink(m.node_at(2, 2), &sink);
  PacketDesc d;
  d.src = m.node_at(1, 0);
  d.dst = m.node_at(2, 2);
  d.payload_flits = 8;
  d.payload_base = 1000;
  m.inject(d);
  ASSERT_TRUE(m.run_until_drained(1000));
  ASSERT_EQ(sink.log().size(), 9u);
  for (std::uint32_t i = 0; i < 9; ++i) {
    EXPECT_EQ(sink.log()[i].seq, i);
  }
  for (std::uint32_t i = 1; i < 9; ++i) {
    EXPECT_EQ(sink.log()[i].payload, 1000u + i - 1);
  }
}

TEST(Mesh, PacketsFromSameSourceDoNotInterleaveOnALink) {
  // Two packets from the same source to the same sink must eject strictly
  // packet-after-packet (wormhole holds the path until the tail).
  Mesh m(small());
  ConsumeSink sink;
  sink.keep_log(true);
  m.set_sink(m.node_at(3, 1), &sink);
  for (int i = 0; i < 2; ++i) {
    PacketDesc d;
    d.src = m.node_at(0, 1);
    d.dst = m.node_at(3, 1);
    d.payload_flits = 5;
    m.inject(d);
  }
  ASSERT_TRUE(m.run_until_drained(1000));
  ASSERT_EQ(sink.log().size(), 12u);
  // First 6 flits all belong to one packet, next 6 to the other.
  const PacketId first = sink.log()[0].packet;
  for (int i = 0; i < 6; ++i) EXPECT_EQ(sink.log()[static_cast<size_t>(i)].packet, first);
  const PacketId second = sink.log()[6].packet;
  EXPECT_NE(first, second);
  for (int i = 6; i < 12; ++i) EXPECT_EQ(sink.log()[static_cast<size_t>(i)].packet, second);
}

TEST(Mesh, BackpressureFromSlowSink) {
  // A sink that accepts nothing for a while forces the network to hold
  // flits without losing any.
  class StallSink final : public Sink {
   public:
    bool accept(const Flit&, std::int64_t cycle) override {
      return cycle >= 200 && (++accepted_, true);
    }
    int accepted_ = 0;
  };
  Mesh m(small());
  StallSink sink;
  m.set_sink(m.node_at(3, 3), &sink);
  for (int i = 0; i < 4; ++i) {
    PacketDesc d;
    d.src = m.node_at(0, 0);
    d.dst = m.node_at(3, 3);
    d.payload_flits = 6;
    m.inject(d);
  }
  ASSERT_TRUE(m.run_until_drained(2000));
  EXPECT_EQ(sink.accepted_, 4 * 7);
  EXPECT_EQ(m.activity().injected_flits, m.activity().ejected_flits);
}

TEST(Mesh, ReleaseCycleHonored) {
  Mesh m(small());
  PacketDesc d;
  d.src = m.node_at(0, 0);
  d.dst = m.node_at(1, 0);
  d.payload_flits = 1;
  d.release_cycle = 100;
  m.inject(d);
  m.step();
  EXPECT_EQ(m.in_flight_flits(), 0u);  // nothing injected yet
  ASSERT_TRUE(m.run_until_drained(500));
  // Head could not have been injected before cycle 100.
  EXPECT_GE(m.cycle(), 100);
}

TEST(Mesh, AdaptiveRoutingDeliversEverything) {
  auto p = small(4);
  p.algo = RouteAlgo::kWestFirstAdaptive;
  Mesh m(p);
  Rng rng(7);
  const auto traffic = uniform_random_traffic(m, 300, 4, rng);
  for (const auto& d : traffic) m.inject(d);
  ASSERT_TRUE(m.run_until_drained(200000));
  EXPECT_EQ(m.activity().ejected_packets, 300u);
}

TEST(Mesh, AdaptiveNoWorseThanXYOnHotspot) {
  // Gather to one corner: adaptivity cannot beat the port bottleneck but
  // must not deadlock or lose packets.
  for (auto algo : {RouteAlgo::kXY, RouteAlgo::kWestFirstAdaptive}) {
    auto p = small(4);
    p.algo = algo;
    Mesh m(p);
    const auto traffic = transpose_writeback_traffic(m, 0, 16, 4);
    for (const auto& d : traffic) m.inject(d);
    ASSERT_TRUE(m.run_until_drained(100000));
    EXPECT_EQ(m.activity().ejected_packets, traffic.size());
  }

  // Nor does it materially help the port-bound 16x16 transpose writeback:
  // west-first adaptive stays within 10% of XY.
  MeshParams adaptive;
  adaptive.algo = RouteAlgo::kWestFirstAdaptive;
  const double rel =
      static_cast<double>(machine_writeback_cycles(adaptive)) /
      static_cast<double>(machine_writeback_cycles(MeshParams{}));
  EXPECT_GT(rel, 0.9);
  EXPECT_LT(rel, 1.1);
}

TEST(Mesh, ThroughputSaturatesAtOneFlitPerCycleAtSink) {
  // With many senders to one sink, the ejection port is the bottleneck:
  // completion >= total flits.
  Mesh m(small(4));
  const auto traffic = transpose_writeback_traffic(m, 0, 32, 8);
  std::uint64_t total_flits = 0;
  for (const auto& d : traffic) {
    total_flits += d.payload_flits + 1;
    m.inject(d);
  }
  ASSERT_TRUE(m.run_until_drained(1000000));
  EXPECT_GE(static_cast<std::uint64_t>(m.cycle()), total_flits);
}

TEST(Mesh, InvalidConfigRejected) {
  MeshParams p;
  p.width = 0;
  EXPECT_THROW(Mesh{p}, SimulationError);
  MeshParams q;
  q.buffer_depth = 0;
  EXPECT_THROW(Mesh{q}, SimulationError);
  // Occupancy and credits are byte-wide: depths above 255 are rejected
  // rather than run on a different datapath.
  q.buffer_depth = 256;
  EXPECT_THROW(Mesh{q}, SimulationError);
  q.buffer_depth = 255;
  EXPECT_NO_THROW(Mesh{q});
}

TEST(Mesh, DeepBuffersReduceCompletionTimeUnderContention) {
  auto shallow = small(4);
  shallow.buffer_depth = 1;
  auto deep = small(4);
  deep.buffer_depth = 8;
  std::int64_t cycles_shallow = 0, cycles_deep = 0;
  for (auto* cfg : {&shallow, &deep}) {
    Mesh m(*cfg);
    const auto traffic = transpose_writeback_traffic(m, 0, 32, 8);
    for (const auto& d : traffic) m.inject(d);
    ASSERT_TRUE(m.run_until_drained(1000000));
    (cfg == &shallow ? cycles_shallow : cycles_deep) = m.cycle();
  }
  EXPECT_LE(cycles_deep, cycles_shallow);

  // Deeper buffers never hurt the saturated 16x16 transpose writeback
  // either: 16-flit buffers finish no later than the paper's 2-flit ones.
  MeshParams paper;
  paper.buffer_depth = 2;
  MeshParams deep16;
  deep16.buffer_depth = 16;
  EXPECT_LE(machine_writeback_cycles(deep16), machine_writeback_cycles(paper));
}

}  // namespace
}  // namespace psync::mesh
