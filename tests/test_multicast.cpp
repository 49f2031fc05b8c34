#include <gtest/gtest.h>

#include "psync/common/check.hpp"
#include "psync/core/sca.hpp"

namespace psync::core {
namespace {

std::vector<Word> iota_burst(std::size_t n) {
  std::vector<Word> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = 1000 + i;
  return b;
}

CpSchedule all_listen(std::size_t nodes, Slot total) {
  CpSchedule s;
  s.total_slots = total;
  s.node_cps.resize(nodes);
  for (auto& cp : s.node_cps) {
    cp.add(CpStride{0, total, total, 1, CpAction::kListen});
  }
  return s;
}

TEST(Multicast, EveryNodeReceivesTheWholeBurst) {
  const std::size_t nodes = 5;
  ScaEngine engine(straight_bus_topology(nodes, 8.0));
  const auto burst = iota_burst(12);
  const auto r = engine.scatter_multicast(all_listen(nodes, 12), burst);
  ASSERT_EQ(r.received.size(), nodes);
  for (const auto& got : r.received) {
    EXPECT_EQ(got, burst);
  }
  EXPECT_EQ(r.deliveries.size(), nodes * 12);
  EXPECT_TRUE(r.unclaimed_slots.empty());
}

TEST(Multicast, PlainScatterRejectsOverlapButMulticastAccepts) {
  const std::size_t nodes = 3;
  ScaEngine engine(straight_bus_topology(nodes, 8.0));
  const auto sched = all_listen(nodes, 8);
  const auto burst = iota_burst(8);
  EXPECT_THROW((void)engine.scatter(sched, burst), SimulationError);
  EXPECT_NO_THROW((void)engine.scatter_multicast(sched, burst));
}

TEST(Multicast, ArrivalTimesFollowEachListenersPosition) {
  const std::size_t nodes = 4;
  ScaEngine engine(straight_bus_topology(nodes, 8.0));
  const auto r = engine.scatter_multicast(all_listen(nodes, 4), iota_burst(4));
  // For a fixed slot, downstream nodes latch it strictly later.
  for (Slot s = 0; s < 4; ++s) {
    TimePs prev = -1;
    for (const auto& d : r.deliveries) {
      if (d.slot != s) continue;
      EXPECT_GT(d.arrival_ps, prev);
      prev = d.arrival_ps;
    }
  }
}

TEST(Multicast, PartialOverlapMixesUnicastAndBroadcast) {
  // Slots [0,4) broadcast to everyone; slots [4,8) private to node 1.
  const std::size_t nodes = 3;
  ScaEngine engine(straight_bus_topology(nodes, 8.0));
  CpSchedule sched;
  sched.total_slots = 8;
  sched.node_cps.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    sched.node_cps[i].add(CpStride{0, 4, 4, 1, CpAction::kListen});
  }
  sched.node_cps[1].add(CpStride{4, 4, 4, 1, CpAction::kListen});
  const auto r = engine.scatter_multicast(sched, iota_burst(8));
  EXPECT_EQ(r.received[0].size(), 4u);
  EXPECT_EQ(r.received[1].size(), 8u);
  EXPECT_EQ(r.received[2].size(), 4u);
}

TEST(Multicast, UnclaimedSlotsStillStrict) {
  ScaEngine engine(straight_bus_topology(2, 8.0));
  CpSchedule sched;
  sched.total_slots = 4;
  sched.node_cps.resize(2);
  sched.node_cps[0].add(CpStride{0, 2, 2, 1, CpAction::kListen});
  EXPECT_THROW((void)engine.scatter_multicast(sched, iota_burst(4)),
               SimulationError);
  const auto r = engine.scatter_multicast(sched, iota_burst(4), false);
  EXPECT_EQ(r.unclaimed_slots.size(), 2u);
}

}  // namespace
}  // namespace psync::core
