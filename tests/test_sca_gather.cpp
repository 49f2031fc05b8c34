// Property tests of the SCA gather — the paper's core mechanism. The
// headline invariant (Sections III, Fig. 4): with a valid CP partition, the
// terminus sees a single gap-free burst at the full clock rate, "as if from
// a single source", regardless of where the drivers sit on the waveguide.
#include "psync/core/sca.hpp"

#include <gtest/gtest.h>

#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"

namespace psync::core {
namespace {

std::vector<std::vector<Word>> numbered_data(const CpSchedule& s) {
  std::vector<std::vector<Word>> data(s.nodes());
  for (std::size_t i = 0; i < s.nodes(); ++i) {
    const Slot n = s.node_cps[i].slot_count(CpAction::kDrive);
    data[i].resize(static_cast<std::size_t>(n));
    for (Slot j = 0; j < n; ++j) {
      data[i][static_cast<std::size_t>(j)] =
          (static_cast<Word>(i) << 32) | static_cast<Word>(j);
    }
  }
  return data;
}

TEST(ScaGather, BlockGatherProducesConcatenatedStream) {
  ScaEngine engine(straight_bus_topology(4, 8.0));
  const auto sched = compile_gather_blocks(4, 8);
  const auto g = engine.gather(sched, numbered_data(sched));
  ASSERT_EQ(g.stream.size(), 32u);
  EXPECT_TRUE(g.gap_free);
  EXPECT_TRUE(g.collisions.empty());
  EXPECT_DOUBLE_EQ(g.utilization, 1.0);
  const auto words = g.words();
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(words[i], ((static_cast<Word>(i / 8) << 32) | (i % 8)));
  }
}

TEST(ScaGather, InterleavedGatherReordersInFlight) {
  // The transpose pattern: element j of node i lands at slot j*P + i; the
  // stream interleaves the nodes' buffers without any buffering hardware.
  ScaEngine engine(straight_bus_topology(4, 8.0));
  const auto sched = compile_gather_interleaved(4, 4);
  const auto g = engine.gather(sched, numbered_data(sched));
  EXPECT_TRUE(g.gap_free);
  const auto words = g.words();
  ASSERT_EQ(words.size(), 16u);
  for (std::size_t s = 0; s < 16; ++s) {
    EXPECT_EQ(words[s] >> 32, s % 4);   // source node
    EXPECT_EQ(words[s] & 0xFFFFFFFF, s / 4);  // element index
  }
}

TEST(ScaGather, ArrivalTimesAreExactlySlotPeriodApart) {
  ScaEngine engine(straight_bus_topology(8, 8.0));
  const auto sched = compile_gather_interleaved(8, 16);
  const auto g = engine.gather(sched, numbered_data(sched));
  const TimePs period = engine.clock().period_ps();
  for (std::size_t i = 1; i < g.stream.size(); ++i) {
    ASSERT_EQ(g.stream[i].arrival_ps - g.stream[i - 1].arrival_ps, period);
  }
  // Terminus arrival is independent of the driver: slot s arrives
  // (s - s0) periods after the stream's first slot s0, whoever drives it.
  const auto& first = g.stream.front();
  for (const auto& rec : g.stream) {
    EXPECT_EQ(rec.arrival_ps,
              first.arrival_ps + (rec.slot - first.slot) * period);
  }
}

// The distance-independence property: scrambling the node positions (keeping
// order) must not change WHAT the receiver sees or the stream's gap-free
// timing — only absolute phase.
TEST(ScaGather, ReceiverStreamIndependentOfNodePlacement) {
  const auto sched = compile_gather_interleaved(6, 8);

  PscanTopology even = straight_bus_topology(6, 10.0);
  PscanTopology skewed = even;
  Rng rng(3);
  // Random strictly-increasing positions over the same bus.
  double at = 100.0;
  for (std::size_t i = 0; i < skewed.node_pos_um.size(); ++i) {
    at += 1000.0 + rng.next_double() * 20000.0;
    skewed.node_pos_um[i] = at;
  }
  PSYNC_CHECK(at < skewed.terminus_um);

  ScaEngine e1(even), e2(skewed);
  const auto data = numbered_data(sched);
  const auto g1 = e1.gather(sched, data);
  const auto g2 = e2.gather(sched, data);
  EXPECT_TRUE(g1.gap_free);
  EXPECT_TRUE(g2.gap_free);
  EXPECT_EQ(g1.words(), g2.words());
  EXPECT_DOUBLE_EQ(g2.utilization, 1.0);
}

TEST(ScaGather, SimultaneousModulationIsLegalWhenSlotsDiffer) {
  // Fig. 4's subtle point: P0 may modulate while P1's energy is still in
  // flight; the waveguide pipeline holds both. Two adjacent slots driven by
  // distant nodes must NOT collide.
  PscanTopology topo = straight_bus_topology(2, 10.0);
  ScaEngine engine(topo);
  const auto sched = compile_gather_interleaved(2, 4);
  const auto g = engine.gather(sched, numbered_data(sched));
  EXPECT_TRUE(g.collisions.empty());
  EXPECT_TRUE(g.gap_free);
  // The drive windows of the two nodes overlap in absolute time: find
  // overlapping modulation intervals from different sources.
  bool overlapping_modulation = false;
  for (const auto& a : g.stream) {
    for (const auto& b : g.stream) {
      if (a.source != b.source && a.modulated_ps < b.modulated_ps &&
          b.modulated_ps < a.modulated_ps + engine.clock().period_ps()) {
        overlapping_modulation = true;
      }
    }
  }
  EXPECT_TRUE(overlapping_modulation);
}

TEST(ScaGather, CollisionDetectedWhenTwoNodesShareASlot) {
  ScaEngine engine(straight_bus_topology(2, 8.0));
  CpSchedule bad;
  bad.total_slots = 4;
  bad.node_cps.resize(2);
  bad.node_cps[0].add(CpStride{0, 2, 2, 1, CpAction::kDrive});
  bad.node_cps[1].add(CpStride{1, 2, 2, 1, CpAction::kDrive});  // overlaps slot 1
  std::vector<std::vector<Word>> data{{1, 2}, {3, 4}};
  EXPECT_THROW((void)engine.gather(bad, data), SimulationError);
  const auto g = engine.gather(bad, data, /*strict=*/false);
  ASSERT_FALSE(g.collisions.empty());
  EXPECT_EQ(g.collisions[0].slot_a, g.collisions[0].slot_b);
}

TEST(ScaGather, TimingFaultCausesPartialOverlapCollision) {
  // A node whose SerDes mis-calibrates by half a slot smears into its
  // neighbour slot: the engine must flag a partial overlap.
  PscanTopology topo = straight_bus_topology(4, 8.0);
  topo.skew_error_ps.assign(4, 0);
  topo.skew_error_ps[2] = 50;  // half of the 100 ps slot at 10 GHz
  ScaEngine engine(topo);
  const auto sched = compile_gather_interleaved(4, 2);
  const auto data = numbered_data(sched);
  const auto g = engine.gather(sched, data, /*strict=*/false);
  EXPECT_FALSE(g.collisions.empty());
  EXPECT_FALSE(g.gap_free);
  for (const auto& c : g.collisions) {
    EXPECT_GT(c.overlap_ps, 0);
    EXPECT_LT(c.overlap_ps, engine.clock().period_ps());
  }
}

TEST(ScaGather, SmallFaultWithinGuardBandStillCollides) {
  // Even a 1 ps overlap is a collision for the exact-overlap model.
  PscanTopology topo = straight_bus_topology(2, 8.0);
  topo.skew_error_ps = {0, -1};
  ScaEngine engine(topo);
  const auto sched = compile_gather_interleaved(2, 2);
  const auto g = engine.gather(sched, numbered_data(sched), false);
  EXPECT_FALSE(g.collisions.empty());
}

TEST(ScaGather, DataSizeMismatchRejected) {
  ScaEngine engine(straight_bus_topology(2, 8.0));
  const auto sched = compile_gather_blocks(2, 4);
  std::vector<std::vector<Word>> too_few{{1, 2, 3}, {1, 2, 3, 4}};
  EXPECT_THROW((void)engine.gather(sched, too_few), SimulationError);
}

TEST(ScaGather, SpanCoversModulationToLastArrival) {
  ScaEngine engine(straight_bus_topology(4, 8.0));
  const auto sched = compile_gather_blocks(4, 4);
  const auto g = engine.gather(sched, numbered_data(sched));
  // 16 slots at 100 ps = 1600 ps of payload, plus flight time to terminus.
  EXPECT_GE(g.span_ps, 16 * engine.clock().period_ps());
  const TimePs flight = engine.clock().flight_ps(engine.topology().terminus_um);
  EXPECT_LE(g.span_ps, 16 * engine.clock().period_ps() + flight +
                           engine.topology().clock.detect_latency_ps);
}

TEST(ScaGather, BudgetCheckRejectsLossyBus) {
  PscanTopology topo = straight_bus_topology(64, 30.0);
  photonic::LinkBudgetParams budget;
  budget.waveguide.loss_straight_db_per_cm = 2.0;  // 60 dB over 30 cm
  topo.budget = budget;
  EXPECT_THROW(ScaEngine{topo}, SimulationError);
}

TEST(ScaGather, BudgetCheckAcceptsShortBus) {
  PscanTopology topo = straight_bus_topology(16, 4.0);
  photonic::LinkBudgetParams budget;
  topo.budget = budget;
  EXPECT_NO_THROW(ScaEngine{topo});
}

TEST(ScaGather, TopologyValidation) {
  PscanTopology t;
  EXPECT_THROW(t.validate(), SimulationError);  // no nodes
  t.node_pos_um = {100.0, 50.0};                // not increasing
  t.terminus_um = 200.0;
  EXPECT_THROW(t.validate(), SimulationError);
  t.node_pos_um = {50.0, 100.0};
  t.terminus_um = 80.0;  // before last node
  EXPECT_THROW(t.validate(), SimulationError);
  t.terminus_um = 200.0;
  t.head_um = 60.0;  // after first node
  EXPECT_THROW(t.validate(), SimulationError);
  t.head_um = 0.0;
  EXPECT_NO_THROW(t.validate());
}

}  // namespace
}  // namespace psync::core
