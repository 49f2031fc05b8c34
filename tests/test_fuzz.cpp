// Randomized property suites: seeds drive random schedules, topologies and
// traffic; invariants must hold for every draw.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "oracle/traffic.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/sca.hpp"
#include "psync/mesh/mesh.hpp"
#include "psync/reliability/channel.hpp"
#include "psync/reliability/secded.hpp"
#include "rng_draws.hpp"

namespace psync {
namespace {

// ---------- SCA schedule fuzzing ----------

class ScaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Random slot ownership (any partition of the schedule among nodes) is a
// valid collective: give each node one single-slot drive stride per owned
// slot, run the gather, and the receiver must see a gap-free stream
// realizing exactly that ownership.
TEST_P(ScaFuzz, RandomPartitionGathersGapFree) {
  Rng rng(GetParam());
  const std::size_t nodes = 2 + next_below(rng, 7);
  const core::Slot total = static_cast<core::Slot>(32 + next_below(rng, 200));

  // Random owner per slot (every node guaranteed at least one slot by
  // round-robin seeding).
  std::vector<std::size_t> owner(static_cast<std::size_t>(total));
  for (std::size_t s = 0; s < owner.size(); ++s) {
    owner[s] = s < nodes ? s : next_below(rng, nodes);
  }
  shuffle(rng, owner);

  std::vector<std::vector<core::Slot>> slots_of(nodes);
  for (std::size_t s = 0; s < owner.size(); ++s) {
    slots_of[owner[s]].push_back(static_cast<core::Slot>(s));
  }

  core::CpSchedule sched;
  sched.total_slots = total;
  sched.node_cps.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (const core::Slot slot : slots_of[i]) {
      sched.node_cps[i].add(
          core::CpStride{slot, 1, 1, 1, core::CpAction::kDrive});
    }
  }

  // Random (strictly increasing) node placement on a random-length bus.
  core::PscanTopology topo;
  topo.clock.frequency_ghz = psync::GigaHertz{10.0};
  double at = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    at += 500.0 + rng.next_double() * 15000.0;
    topo.node_pos_um.push_back(at);
  }
  topo.terminus_um = at + 1000.0 + rng.next_double() * 30000.0;
  core::ScaEngine engine(topo);

  std::vector<std::vector<core::Word>> data(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < slots_of[i].size(); ++j) {
      data[i].push_back((static_cast<core::Word>(i) << 32) |
                        static_cast<core::Word>(j));
    }
  }
  const auto g = engine.gather(sched, data);
  ASSERT_TRUE(g.gap_free);
  ASSERT_TRUE(g.collisions.empty());
  ASSERT_EQ(g.stream.size(), static_cast<std::size_t>(total));
  std::vector<std::size_t> element_seen(nodes, 0);
  for (std::size_t s = 0; s < g.stream.size(); ++s) {
    const auto& rec = g.stream[s];
    EXPECT_EQ(rec.slot, static_cast<core::Slot>(s));
    EXPECT_EQ(static_cast<std::size_t>(rec.source), owner[s]);
    EXPECT_EQ(rec.word >> 32, owner[s]);
    EXPECT_EQ(rec.word & 0xFFFFFFFF, element_seen[owner[s]]++);
  }
}

// Corrupting one slot to a duplicate owner must always be detected.
TEST_P(ScaFuzz, DuplicatedSlotAlwaysCollides) {
  Rng rng(GetParam() ^ 0xABCDEF);
  const std::size_t nodes = 2 + next_below(rng, 5);
  const core::Slot elems = static_cast<core::Slot>(4 + next_below(rng, 16));
  auto sched = core::compile_gather_interleaved(nodes, elems);
  // Give node 0 an extra claim over a random slot owned by someone else.
  const core::Slot stolen = static_cast<core::Slot>(
      1 + next_below(rng, static_cast<std::uint64_t>(sched.total_slots - 1)));
  if (stolen % static_cast<core::Slot>(nodes) == 0) return;  // already node 0's
  sched.node_cps[0].add(core::CpStride{stolen, 1, 1, 1, core::CpAction::kDrive});

  core::ScaEngine engine(core::straight_bus_topology(nodes, 8.0));
  std::vector<std::vector<core::Word>> data(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    data[i].assign(static_cast<std::size_t>(elems) + (i == 0 ? 1 : 0), 7);
  }
  const auto g = engine.gather(sched, data, /*strict=*/false);
  EXPECT_FALSE(g.collisions.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------- Mesh fuzzing ----------

class MeshFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeshFuzz, ConservationAndLatencyBounds) {
  Rng rng(GetParam());
  mesh::MeshParams p;
  p.width = static_cast<std::uint32_t>(2 + next_below(rng, 5));
  p.height = static_cast<std::uint32_t>(2 + next_below(rng, 5));
  p.buffer_depth = static_cast<std::uint32_t>(1 + next_below(rng, 4));
  p.route_delay = static_cast<std::uint32_t>(next_below(rng, 3));
  p.virtual_channels = static_cast<std::uint32_t>(1 + next_below(rng, 4));
  p.algo = rng.next_bool() ? mesh::RouteAlgo::kXY
                           : mesh::RouteAlgo::kWestFirstAdaptive;
  mesh::Mesh m(p);

  std::vector<mesh::ConsumeSink> sinks(m.nodes());
  for (mesh::NodeId n = 0; n < m.nodes(); ++n) {
    sinks[n].keep_log(true);
    m.set_sink(n, &sinks[n]);
  }

  const auto packets = static_cast<std::uint32_t>(20 + next_below(rng, 200));
  const auto flits = static_cast<std::uint32_t>(next_below(rng, 8));
  std::vector<mesh::PacketDesc> traffic =
      mesh::uniform_random_traffic(m, packets, flits, rng);
  // Random staggered release times.
  for (auto& d : traffic) {
    d.release_cycle = static_cast<std::int64_t>(next_below(rng, 100));
    m.inject(d);
  }
  ASSERT_TRUE(m.run_until_drained(2'000'000))
      << "deadlock or livelock at seed " << GetParam();

  // Conservation: every flit injected is ejected exactly once, at the
  // right node, in order within its packet.
  EXPECT_EQ(m.activity().injected_flits, m.activity().ejected_flits);
  EXPECT_EQ(m.activity().ejected_packets, traffic.size());
  std::map<mesh::PacketId, std::uint32_t> next_seq;
  for (mesh::NodeId n = 0; n < m.nodes(); ++n) {
    for (const auto& f : sinks[n].log()) {
      EXPECT_EQ(f.dst, n);
      EXPECT_EQ(f.seq, next_seq[f.packet]++);
    }
  }
  // Latency floor: hops + routing delays + payload serialization.
  EXPECT_GE(m.packet_latency().min(), 1.0);
}

TEST_P(MeshFuzz, HotspotGatherNeverDeadlocks) {
  Rng rng(GetParam() * 7919);
  mesh::MeshParams p;
  p.width = static_cast<std::uint32_t>(3 + next_below(rng, 4));
  p.height = p.width;
  p.buffer_depth = static_cast<std::uint32_t>(1 + next_below(rng, 3));
  p.virtual_channels = static_cast<std::uint32_t>(1 + next_below(rng, 4));
  p.algo = rng.next_bool() ? mesh::RouteAlgo::kXY
                           : mesh::RouteAlgo::kWestFirstAdaptive;
  mesh::Mesh m(p);
  const auto hotspot = static_cast<mesh::NodeId>(next_below(rng, m.nodes()));
  const auto traffic = mesh::transpose_writeback_traffic(m, hotspot, 32, 8);
  for (const auto& d : traffic) m.inject(d);
  ASSERT_TRUE(m.run_until_drained(5'000'000));
  EXPECT_EQ(m.activity().ejected_packets, traffic.size());
}

// ---------- SECDED / framing fuzzing ----------

class SecdedFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Any single flipped bit of the 72-bit codeword — data or check — must be
// corrected back to the original word.
TEST_P(SecdedFuzz, RandomSingleErrorsAlwaysCorrected) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t w = rng.next_u64();
    const auto check = reliability::secded_encode(w);
    const auto pos = next_below(rng, 72);
    std::uint64_t data = w;
    std::uint8_t chk = check;
    if (pos < 64) {
      data ^= 1ULL << pos;
    } else {
      chk = static_cast<std::uint8_t>(chk ^ (1U << (pos - 64)));
    }
    const auto r = reliability::secded_decode(data, chk);
    EXPECT_TRUE(r.corrected()) << "seed " << GetParam() << " pos " << pos;
    EXPECT_EQ(r.data, w);
  }
}

// Any two distinct flipped bits must be flagged as a double error — never
// silently "corrected" into a third word.
TEST_P(SecdedFuzz, RandomDoubleErrorsAlwaysDetected) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t w = rng.next_u64();
    const auto check = reliability::secded_encode(w);
    const auto a = next_below(rng, 72);
    auto b = next_below(rng, 72);
    while (b == a) b = next_below(rng, 72);
    std::uint64_t data = w;
    std::uint8_t chk = check;
    for (const auto pos : {a, b}) {
      if (pos < 64) {
        data ^= 1ULL << pos;
      } else {
        chk = static_cast<std::uint8_t>(chk ^ (1U << (pos - 64)));
      }
    }
    const auto r = reliability::secded_decode(data, chk);
    EXPECT_TRUE(r.double_error())
        << "seed " << GetParam() << " bits " << a << "," << b;
  }
}

// A random payload through a random-BER channel under correct+retry comes
// out bit-exact (or, if retries were exhausted, is reported honestly).
TEST_P(SecdedFuzz, ChannelRoundTripUnderRandomBer) {
  Rng rng(GetParam());
  reliability::FaultModel fault;
  fault.random_ber = 1e-5 * static_cast<double>(1 + next_below(rng, 20));
  fault.seed = GetParam() * 17 + 1;
  if (next_below(rng, 2) == 1) {
    fault.dead_wavelengths = {static_cast<std::uint32_t>(next_below(rng, 64))};
  }
  reliability::ReliabilityParams params;
  params.policy = reliability::ReliabilityPolicy::kCorrectRetry;
  params.block_words = 16 + next_below(rng, 100);

  std::vector<std::uint64_t> payload(256 + next_below(rng, 2048));
  for (auto& w : payload) w = rng.next_u64();

  reliability::ProtectedChannel ch(fault, params);
  const auto tx = ch.transmit(payload);
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (tx.words[i] != payload[i]) ++wrong;
  }
  EXPECT_EQ(wrong, tx.retry.residual_errors);  // report is ground truth
  if (tx.retry.residual_errors == 0) {
    EXPECT_EQ(tx.words, payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SecdedFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

INSTANTIATE_TEST_SUITE_P(Seeds, MeshFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

}  // namespace
}  // namespace psync
