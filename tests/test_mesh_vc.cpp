// Virtual-channel router tests: correctness at V > 1 and the blocking
// behaviours VCs are supposed to fix.
#include <gtest/gtest.h>

#include <map>

#include "oracle/traffic.hpp"
#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/mesh/mesh.hpp"
#include "transpose_writeback_params.hpp"

namespace psync::mesh {
namespace {

MeshParams cfg(std::uint32_t dim, std::uint32_t vc) {
  MeshParams p;
  p.width = dim;
  p.height = dim;
  p.virtual_channels = vc;
  return p;
}

class VcSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(VcSweep, UniformRandomConservation) {
  Mesh m(cfg(4, GetParam()));
  std::vector<ConsumeSink> sinks(m.nodes());
  for (NodeId n = 0; n < m.nodes(); ++n) {
    sinks[n].keep_log(true);
    m.set_sink(n, &sinks[n]);
  }
  Rng rng(77 + GetParam());
  const auto traffic = uniform_random_traffic(m, 400, 4, rng);
  for (const auto& d : traffic) m.inject(d);
  ASSERT_TRUE(m.run_until_drained(500000));
  EXPECT_EQ(m.activity().ejected_packets, traffic.size());
  EXPECT_EQ(m.activity().injected_flits, m.activity().ejected_flits);
  // In-order delivery per packet even when packets interleave on links.
  std::map<PacketId, std::uint32_t> next_seq;
  for (NodeId n = 0; n < m.nodes(); ++n) {
    for (const auto& f : sinks[n].log()) {
      EXPECT_EQ(f.seq, next_seq[f.packet]++);
    }
  }
}

TEST_P(VcSweep, HotspotGatherCompletes) {
  Mesh m(cfg(4, GetParam()));
  const auto traffic = transpose_writeback_traffic(m, 0, 32, 8);
  for (const auto& d : traffic) m.inject(d);
  ASSERT_TRUE(m.run_until_drained(500000));
  EXPECT_EQ(m.activity().ejected_packets, traffic.size());
}

INSTANTIATE_TEST_SUITE_P(Channels, VcSweep, ::testing::Values(1, 2, 4, 8));

TEST(MeshVc, PacketsNeverInterleaveAtASink) {
  // Even with many VCs, the eject lock keeps packet delivery atomic —
  // memory interfaces depend on head..tail arriving contiguously.
  Mesh m(cfg(3, 4));
  ConsumeSink sink;
  sink.keep_log(true);
  m.set_sink(m.node_at(2, 2), &sink);
  for (int i = 0; i < 6; ++i) {
    PacketDesc d;
    d.src = m.node_at(static_cast<std::uint32_t>(i % 3), 0);
    d.dst = m.node_at(2, 2);
    d.payload_flits = 5;
    m.inject(d);
  }
  ASSERT_TRUE(m.run_until_drained(100000));
  PacketId current = 0;
  bool in_packet = false;
  for (const auto& f : sink.log()) {
    if (!in_packet) {
      EXPECT_TRUE(f.is_head());
      current = f.packet;
      in_packet = !f.is_tail();
    } else {
      EXPECT_EQ(f.packet, current) << "flit interleaving at sink";
      if (f.is_tail()) in_packet = false;
    }
  }
}

TEST(MeshVc, VcsRelieveHeadOfLineBlocking) {
  // Classic HoL scenario: a long packet to a STALLED destination shares an
  // input with traffic to a free destination. With 1 VC the victim waits
  // behind the blocked packet; with 2+ VCs it flows around it.
  class NeverSink final : public Sink {
   public:
    bool accept(const Flit&, std::int64_t) override { return false; }
  };

  auto run = [](std::uint32_t vc) {
    Mesh m(cfg(4, vc));
    NeverSink blocked;
    m.set_sink(m.node_at(3, 0), &blocked);  // victim's neighbour stalls
    ConsumeSink open;
    m.set_sink(m.node_at(3, 1), &open);

    // Both packets from (0,0), same first hops eastward (XY routing):
    // packet A (long) to the stalled node, then packet B to the open node.
    PacketDesc a;
    a.src = m.node_at(0, 0);
    a.dst = m.node_at(3, 0);
    a.payload_flits = 16;
    m.inject(a);
    PacketDesc b;
    b.src = m.node_at(0, 0);
    b.dst = m.node_at(3, 1);
    b.payload_flits = 4;
    m.inject(b);

    std::int64_t b_done = -1;
    for (int cycle = 0; cycle < 4000 && b_done < 0; ++cycle) {
      m.step();
      if (open.packets() == 1) b_done = m.cycle();
    }
    return b_done;
  };

  const auto with1 = run(1);
  const auto with2 = run(2);
  EXPECT_EQ(with1, -1) << "with one VC the victim stays blocked forever";
  EXPECT_GT(with2, 0) << "a second VC lets the victim route around";
}

TEST(MeshVc, MoreVcsHelpUniformThroughputUnderLoad) {
  // Saturating uniform-random traffic drains at least as fast with VCs.
  std::int64_t cycles[2];
  int idx = 0;
  for (std::uint32_t vc : {1u, 4u}) {
    Mesh m(cfg(4, vc));
    Rng rng(5);
    const auto traffic = uniform_random_traffic(m, 800, 6, rng);
    for (const auto& d : traffic) m.inject(d);
    EXPECT_TRUE(m.run_until_drained(2000000));
    cycles[idx++] = m.cycle();
  }
  EXPECT_LE(cycles[1], cycles[0]);

  // The Table III ablation's pair of runs. Uniform random on the 4x4 mesh
  // (24 eight-flit packets per node): 4 VCs drain more than 2% faster.
  // The 16x16 single-port transpose writeback: 4 VCs gain less than 5%,
  // because its bottleneck is the memory endpoint, not head-of-line
  // blocking.
  std::int64_t uniform[2] = {0, 0};
  std::int64_t transpose[2] = {0, 0};
  idx = 0;
  for (std::uint32_t vc : {1u, 4u}) {
    Mesh m(cfg(4, vc));
    Rng rng(42);
    for (const auto& d : uniform_random_traffic(m, m.nodes() * 24, 8, rng)) {
      m.inject(d);
    }
    EXPECT_TRUE(m.run_until_drained(10'000'000));
    uniform[idx] = m.cycle();

    auto mp = core::transpose_writeback_params(16);
    mp.net.virtual_channels = vc;
    core::MeshMachine machine(mp);
    transpose[idx++] = machine.run_transpose_writeback(256).completion_cycle;
  }
  const auto gain = [](const std::int64_t* c) {
    return static_cast<double>(c[0]) / static_cast<double>(c[1]);
  };
  EXPECT_GT(gain(uniform), 1.02);
  EXPECT_LT(gain(transpose), 1.05);
}

TEST(MeshVc, InvalidVcCountRejected) {
  EXPECT_THROW(Mesh(cfg(2, 0)), SimulationError);
  EXPECT_THROW(Mesh(cfg(2, 17)), SimulationError);
}

}  // namespace
}  // namespace psync::mesh
