// Seeded equivalence fuzz: ScaEngine and CommProgram::entries() against the
// per-slot, sort-based oracle in sca_reference.hpp. Every result field is
// compared (stream/delivery records, collisions in order, unclaimed slots,
// span, gap-free flag, utilization), for the record views and for the
// record-free gather_words/scatter_words, and where one side throws the
// other must throw the same SimulationError message.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/sca.hpp"
#include "rng_draws.hpp"
#include "sca_reference.hpp"

namespace psync::core {
namespace {

template <class F>
auto outcome(F&& f) -> std::variant<decltype(f()), std::string> {
  try {
    return f();
  } catch (const SimulationError& e) {
    return std::string(e.what());
  }
}

auto key(const SlotRecord& r) {
  return std::make_tuple(r.slot, r.word, r.source, r.arrival_ps,
                         r.modulated_ps);
}
auto key(const Collision& c) {
  return std::make_tuple(c.node_a, c.node_b, c.slot_a, c.slot_b, c.overlap_ps);
}
auto key(const DeliveryRecord& d) {
  return std::make_tuple(d.slot, d.word, d.node, d.element, d.arrival_ps);
}
auto key(const CpEntry& e) {
  return std::make_tuple(e.begin, e.length, static_cast<int>(e.action));
}
template <class T>
auto keys(const std::vector<T>& v) {
  std::vector<decltype(key(v.front()))> out;
  for (const auto& x : v) out.push_back(key(x));
  return out;
}

void expect_same(const GatherResult& got, const GatherResult& want) {
  EXPECT_EQ(keys(got.stream), keys(want.stream));
  EXPECT_EQ(keys(got.collisions), keys(want.collisions));
  EXPECT_EQ(got.gap_free, want.gap_free);
  EXPECT_EQ(got.utilization, want.utilization);
  EXPECT_EQ(got.span_ps, want.span_ps);
  EXPECT_EQ(got.first_arrival_ps, want.first_arrival_ps);
}

void expect_same(const ScatterResult& got, const ScatterResult& want) {
  EXPECT_EQ(keys(got.deliveries), keys(want.deliveries));
  EXPECT_EQ(got.received, want.received);
  EXPECT_EQ(got.unclaimed_slots, want.unclaimed_slots);
  EXPECT_EQ(got.span_ps, want.span_ps);
}

// What the record-free views report: the summary plus the words they
// write to caller storage.
struct GatherWords : GatherSummary {
  std::vector<Word> words;
};
struct ScatterOut : ScatterSummary {
  std::vector<std::vector<TimePs>> latch_ps;
  std::vector<std::vector<Word>> received;
};

// The record-free views on output storage every call reuses, so whatever
// an earlier case left there (a longer stream, more nodes, a throw midway)
// must not show in a later result.
GatherWords gather_words(const ScaEngine& engine, const CpSchedule& sched,
                         const std::vector<std::vector<Word>>& data,
                         bool strict = true) {
  static NodeWords nodes;
  static std::vector<Word> words;
  static ScaWork work;
  nodes.words.clear();
  nodes.offset.assign(1, 0);
  for (const auto& d : data) {
    nodes.words.insert(nodes.words.end(), d.begin(), d.end());
    nodes.offset.push_back(nodes.words.size());
  }
  GatherWords out;
  static_cast<GatherSummary&>(out) =
      engine.gather_words(sched, nodes, &words, &work, strict);
  out.words = words;
  return out;
}

ScatterOut scatter_words(const ScaEngine& engine, const CpSchedule& sched,
                         const std::vector<Word>& burst, bool strict = true) {
  static NodeWords received;
  static ScaWork work;
  ScatterOut out;
  const ScatterWords sc =
      engine.scatter_words(sched, burst, &received, &work, strict);
  static_cast<ScatterSummary&>(out) = sc;
  for (std::size_t i = 0; i < received.nodes(); ++i) {
    out.latch_ps.emplace_back(sc.latch(i).begin(), sc.latch(i).end());
    out.received.emplace_back(received.node(i).begin(),
                              received.node(i).end());
  }
  return out;
}

void expect_same(const GatherWords& got, const GatherWords& want) {
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(keys(got.collisions), keys(want.collisions));
  EXPECT_EQ(got.gap_free, want.gap_free);
  EXPECT_EQ(got.utilization, want.utilization);
  EXPECT_EQ(got.span_ps, want.span_ps);
  EXPECT_EQ(got.first_arrival_ps, want.first_arrival_ps);
}

void expect_same(const ScatterOut& got, const ScatterOut& want) {
  EXPECT_EQ(got.received, want.received);
  EXPECT_EQ(got.latch_ps, want.latch_ps);
  EXPECT_EQ(got.unclaimed_slots, want.unclaimed_slots);
  EXPECT_EQ(got.span_ps, want.span_ps);
}

// The oracle's records reduced to what the record-free views report.
GatherWords as_words(const GatherResult& g) {
  GatherWords out;
  static_cast<GatherSummary&>(out) = g;
  out.words = g.words();
  return out;
}

// Latch times come from the oracle's delivery of each listen entry's first
// slot.
ScatterOut as_words(const CpSchedule& sched, const ScatterResult& sc) {
  ScatterOut out;
  static_cast<ScatterSummary&>(out) = sc;
  out.received = sc.received;
  out.latch_ps.resize(sched.nodes());
  for (std::size_t i = 0; i < sched.nodes(); ++i) {
    for (const CpEntry& e : sca_reference::entries(sched.node_cps[i])) {
      if (e.action != CpAction::kListen) continue;
      const auto d = std::find_if(
          sc.deliveries.begin(), sc.deliveries.end(),
          [&](const DeliveryRecord& r) {
            return r.node == static_cast<std::int32_t>(i) && r.slot == e.begin;
          });
      if (d == sc.deliveries.end()) {
        ADD_FAILURE() << "oracle has no delivery for node " << i << " slot "
                      << e.begin;
        continue;
      }
      out.latch_ps[i].push_back(d->arrival_ps);
    }
  }
  return out;
}

void expect_same(const std::vector<CpEntry>& got,
                 const std::vector<CpEntry>& want) {
  EXPECT_EQ(keys(got), keys(want));
}

/// Both ran to completion with equal results, or both threw the same error.
template <class R>
void expect_same(const std::variant<R, std::string>& got,
                 const std::variant<R, std::string>& want) {
  ASSERT_EQ(got.index(), want.index())
      << (got.index() == 1 ? "engine threw: " + std::get<1>(got)
                           : "oracle threw: " + std::get<1>(want));
  if (got.index() == 1) {
    EXPECT_EQ(std::get<1>(got), std::get<1>(want));
  } else {
    expect_same(std::get<0>(got), std::get<0>(want));
  }
}

// Both gather views against the oracle, strict and not.
void expect_gather_matches_oracle(const ScaEngine& engine,
                                  const CpSchedule& sched,
                                  const std::vector<std::vector<Word>>& data) {
  for (const bool strict : {true, false}) {
    SCOPED_TRACE(strict ? "strict" : "non-strict");
    expect_same(outcome([&] { return engine.gather(sched, data, strict); }),
                outcome([&] {
                  return sca_reference::gather(engine, sched, data, strict);
                }));
    expect_same(
        outcome([&] { return gather_words(engine, sched, data, strict); }),
        outcome([&] {
          return as_words(sca_reference::gather(engine, sched, data, strict));
        }));
  }
}

// Both unicast scatter views against the oracle, strict and not.
void expect_scatter_matches_oracle(const ScaEngine& engine,
                                   const CpSchedule& sched,
                                   const std::vector<Word>& burst) {
  for (const bool strict : {true, false}) {
    SCOPED_TRACE(strict ? "strict" : "non-strict");
    expect_same(outcome([&] { return engine.scatter(sched, burst, strict); }),
                outcome([&] {
                  return sca_reference::scatter(engine, sched, burst, strict);
                }));
    expect_same(
        outcome([&] { return scatter_words(engine, sched, burst, strict); }),
        outcome([&] {
          return as_words(
              sched, sca_reference::scatter(engine, sched, burst, strict));
        }));
  }
}

// Random taps, clock and (sometimes) per-node skew faults. Faults within a
// slot period give partial overlaps; equal faults on nodes that share a
// slot give exact (arrival, slot) ties. Faults of several whole periods
// make slots of different nodes tie on arrival alone, and faults of a
// million periods put nodes far beyond the end of any stream here.
PscanTopology random_topology(Rng& rng, std::size_t nodes) {
  PscanTopology t;
  const double freqs[] = {10.0, 12.5, 8.0, 4.0};
  t.clock.frequency_ghz = GigaHertz(freqs[next_below(rng, 4)]);
  t.clock.group_velocity_cm_per_ns = 3.0 + 6.0 * rng.next_double();
  t.clock.detect_latency_ps = next_range(rng, 0, 60);
  t.clock.launch_time_ps = next_range(rng, 0, 5000);
  double at = 2000.0 * rng.next_double();
  t.head_um = at * rng.next_double();
  t.node_pos_um.resize(nodes);
  for (auto& x : t.node_pos_um) {
    at += 1.0 + 8000.0 * rng.next_double();
    x = at;
  }
  t.terminus_um = at + 5000.0 * rng.next_double();
  const TimePs period = photonic::PhotonicClock(t.clock).period_ps();
  switch (next_below(rng, 6)) {
    case 0:
      break;  // no fault table
    case 1:
      t.skew_error_ps.assign(nodes, 0);
      break;
    case 2:
      t.skew_error_ps.resize(nodes);
      for (auto& f : t.skew_error_ps) {
        f = rng.next_bool(0.4) ? next_range(rng, -period + 1, period - 1) : 0;
      }
      break;
    case 3: {
      const TimePs shared = next_range(rng, -period, period);
      t.skew_error_ps.resize(nodes);
      for (auto& f : t.skew_error_ps) f = rng.next_bool() ? shared : 0;
      break;
    }
    case 4: {
      const TimePs shared = next_range(rng, 0, period - 1);
      t.skew_error_ps.resize(nodes);
      for (auto& f : t.skew_error_ps) {
        f = next_range(rng, -4, 4) * period + (rng.next_bool() ? shared : 0);
      }
      break;
    }
    default: {
      const TimePs shared = next_range(rng, -period, period);
      t.skew_error_ps.resize(nodes);
      for (auto& f : t.skew_error_ps) {
        f = next_range(rng, -2, 2) * 1'000'000 * period +
            next_range(rng, -3, 3) * period + (rng.next_bool() ? shared : 0);
      }
      break;
    }
  }
  return t;
}

// A node's program from random strides: overlaps within the program make
// entries() throw; overlaps across nodes are collisions or double claims.
CommProgram random_program(Rng& rng, Slot horizon, CpAction main_action) {
  CommProgram cp;
  const auto n = next_range(rng, 0, 4);
  for (std::int64_t k = 0; k < n; ++k) {
    CpStride s;
    s.first = next_range(rng, 0, horizon);
    s.burst = next_range(rng, 1, 4);
    s.count = next_range(rng, 1, 6);
    s.stride = s.count > 1 ? s.burst + next_range(rng, 0, 10)
                           : next_range(rng, 0, 10);
    s.action = rng.next_bool(0.8)
                   ? main_action
                   : static_cast<CpAction>(next_below(rng, 3));
    cp.add(s);
  }
  return cp;
}

CpSchedule random_schedule(Rng& rng, std::size_t nodes, CpAction action) {
  CpSchedule s;
  s.total_slots = next_range(rng, 1, 80);
  s.node_cps.resize(nodes);
  for (auto& cp : s.node_cps) cp = random_program(rng, s.total_slots, action);
  return s;
}

CpSchedule gather_schedule(Rng& rng, std::size_t nodes) {
  switch (next_below(rng, 5)) {
    case 0:
      return compile_gather_blocks(nodes, next_range(rng, 1, 9));
    case 1:
      return compile_gather_interleaved(nodes, next_range(rng, 1, 9));
    case 2:
      return compile_gather_round_robin(nodes, next_range(rng, 1, 5),
                                        next_range(rng, 1, 5));
    case 3:
      return compile_gather_transpose(nodes, next_range(rng, 1, 4),
                                      next_range(rng, 1, 9));
    default:
      return random_schedule(rng, nodes, CpAction::kDrive);
  }
}

CpSchedule scatter_schedule(Rng& rng, std::size_t nodes) {
  switch (next_below(rng, 4)) {
    case 0:
      return compile_scatter_blocks(nodes, next_range(rng, 1, 9));
    case 1:
      return compile_scatter_interleaved(nodes, next_range(rng, 1, 9));
    case 2:
      return compile_scatter_round_robin(nodes, next_range(rng, 1, 5),
                                         next_range(rng, 1, 5));
    default:
      return random_schedule(rng, nodes, CpAction::kListen);
  }
}

// Data sized to each node's drive count, occasionally one word off so the
// size checks fire too.
std::vector<std::vector<Word>> random_data(Rng& rng, const CpSchedule& s) {
  std::vector<std::vector<Word>> data(s.nodes());
  for (std::size_t i = 0; i < s.nodes(); ++i) {
    auto n = s.node_cps[i].slot_count(CpAction::kDrive);
    if (rng.next_bool(0.1)) n += rng.next_bool() ? 1 : (n > 0 ? -1 : 0);
    data[i].resize(static_cast<std::size_t>(n));
    for (auto& w : data[i]) w = rng.next_u64();
  }
  return data;
}

std::vector<Word> random_burst(Rng& rng, const CpSchedule& s) {
  Slot n = s.total_slots;
  if (rng.next_bool(0.2)) n += next_range(rng, -3, 3);
  std::vector<Word> burst(static_cast<std::size_t>(n < 0 ? 0 : n));
  for (auto& w : burst) w = rng.next_u64();
  return burst;
}

constexpr std::uint64_t kCases = 400;

TEST(ScaEquivalence, GatherMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto nodes = static_cast<std::size_t>(next_range(rng, 1, 9));
    const ScaEngine engine(random_topology(rng, nodes));
    const CpSchedule sched = gather_schedule(rng, nodes);
    expect_gather_matches_oracle(engine, sched, random_data(rng, sched));
  }
}

TEST(ScaEquivalence, ScatterMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    const auto nodes = static_cast<std::size_t>(next_range(rng, 1, 9));
    const ScaEngine engine(random_topology(rng, nodes));
    const CpSchedule sched = scatter_schedule(rng, nodes);
    expect_scatter_matches_oracle(engine, sched, random_burst(rng, sched));
  }
}

TEST(ScaEquivalence, PaperScaleTransposeAndRoundRobinMatchOracle) {
  // The machine's own collectives at the psync_sweep shape: the 256x256
  // transpose gather and the Model II round-robin scatter at P=16, k=8.
  const ScaEngine engine(straight_bus_topology(16, 4.0));
  Rng rng(2013);
  const CpSchedule tr = compile_gather_transpose(16, 16, 256);
  const auto data = random_data(rng, tr);
  expect_same(outcome([&] { return engine.gather(tr, data); }),
              outcome([&] { return sca_reference::gather(engine, tr, data); }));
  expect_same(outcome([&] { return gather_words(engine, tr, data); }),
              outcome([&] {
                return as_words(sca_reference::gather(engine, tr, data));
              }));
  // One driver per slot and no skew: the owner map places it, no keys.
  NodeWords nodes;
  nodes.resize_equal(16, 16 * 256);
  std::vector<Word> words;
  ScaWork work;
  (void)engine.gather_words(tr, nodes, &words, &work);
  EXPECT_TRUE(work.keys.empty());
  const CpSchedule rr = compile_scatter_round_robin(16, 8, 16 * 32);
  std::vector<Word> burst(static_cast<std::size_t>(rr.total_slots));
  for (auto& w : burst) w = rng.next_u64();
  expect_same(
      outcome([&] { return engine.scatter(rr, burst); }),
      outcome([&] { return sca_reference::scatter(engine, rr, burst); }));
  expect_same(outcome([&] { return scatter_words(engine, rr, burst); }),
              outcome([&] {
                return as_words(rr, sca_reference::scatter(engine, rr, burst));
              }));
}

TEST(ScaEquivalence, SkewsBeyondOnePeriodAndBeyondTheStreamMatchOracle) {
  // Interleaved gathers, where every node's slots span the whole stream,
  // under whole-period skews: a few periods (the stream still interleaves),
  // and a million periods apart (the nodes' spans no longer overlap, and
  // bucketing every period between them would dwarf the stream).
  const std::size_t nodes = 8;
  const CpSchedule sched = compile_gather_interleaved(nodes, 64);
  Rng rng(77);
  std::vector<std::vector<Word>> data(nodes, std::vector<Word>(64));
  for (auto& node : data) {
    for (auto& w : node) w = rng.next_u64();
  }
  PscanTopology topo = straight_bus_topology(nodes, 4.0);
  const TimePs period = photonic::PhotonicClock(topo.clock).period_ps();
  for (const TimePs scale : {TimePs{3}, TimePs{1'000'000}}) {
    SCOPED_TRACE("scale " + std::to_string(scale));
    topo.skew_error_ps.resize(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      // Alternate signs; nodes i and i + 4 sit 4 periods apart, so their
      // interleaved slots (4 apart) tie on arrival and collide.
      const auto k = static_cast<TimePs>(i % 4) * (i % 2 == 0 ? 1 : -1);
      const auto pair = static_cast<TimePs>(i / 4) * 4;
      topo.skew_error_ps[i] =
          (k * scale + pair) * period + (i % 4 == 1 ? 3 : 0);
    }
    const ScaEngine engine(topo);
    const GatherResult g = engine.gather(sched, data, /*strict=*/false);
    EXPECT_EQ(g.stream.size(), nodes * 64);
    EXPECT_FALSE(g.collisions.empty());
    expect_same(
        outcome([&] { return engine.gather(sched, data, false); }),
        outcome([&] { return sca_reference::gather(engine, sched, data, false); }));
    expect_same(outcome([&] { return gather_words(engine, sched, data, false); }),
                outcome([&] {
                  return as_words(
                      sca_reference::gather(engine, sched, data, false));
                }));
  }
}

TEST(ScaEquivalence, EntriesMatchSortThenCheck) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 31337);
    const CommProgram cp =
        random_program(rng, next_range(rng, 0, 100),
                       static_cast<CpAction>(next_below(rng, 3)));
    expect_same(outcome([&] { return cp.entries(); }),
                outcome([&] { return sca_reference::entries(cp); }));
  }
  // Interleaved strides (the transpose CP) merge into one ascending list.
  const CpSchedule tr = compile_gather_transpose(4, 8, 32);
  for (const auto& cp : tr.node_cps) {
    expect_same(outcome([&] { return cp.entries(); }),
                outcome([&] { return sca_reference::entries(cp); }));
  }
}

// Node n drives slots [n*E, (n+1)*E) of a blocks gather; a node may add one
// more stride.
CpSchedule blocks_plus(std::size_t nodes, Slot elements, std::size_t extra_node,
                       const CpStride& extra) {
  CpSchedule sched = compile_gather_blocks(nodes, elements);
  sched.node_cps[extra_node].add(extra);
  return sched;
}

std::vector<std::vector<Word>> data_for(const CpSchedule& sched) {
  std::vector<std::vector<Word>> data(sched.nodes());
  Word next = 100;
  for (std::size_t i = 0; i < sched.nodes(); ++i) {
    data[i].resize(static_cast<std::size_t>(
        sched.node_cps[i].slot_count(CpAction::kDrive)));
    for (auto& w : data[i]) w = next++;
  }
  return data;
}

TEST(ScaEquivalence, OneDoubleDrivenBucketFallsBackToSortedKeys) {
  // Four 8-word blocks, and node 3 also drives slot 23, node 2's last:
  // one bucket of 32 holds two words. Then node 3 drives its own slot 30
  // twice, which only entries() can name.
  const ScaEngine engine(straight_bus_topology(4, 4.0));
  const std::vector<CpSchedule> cases = {
      blocks_plus(4, 8, 3, CpStride{23, 1, 1, 1, CpAction::kDrive}),
      blocks_plus(4, 8, 3, CpStride{30, 1, 1, 1, CpAction::kDrive})};
  for (const CpSchedule& sched : cases) {
    const auto data = data_for(sched);
    expect_gather_matches_oracle(engine, sched, data);
    NodeWords nodes;
    for (const auto& d : data) {
      nodes.words.insert(nodes.words.end(), d.begin(), d.end());
      nodes.offset.push_back(nodes.words.size());
    }
    std::vector<Word> words;
    ScaWork work;
    (void)outcome([&] {
      return engine.gather_words(sched, nodes, &words, &work, false);
    });
    EXPECT_EQ(work.keys.size(), 33u);
  }
  const GatherResult g = engine.gather(cases[0], data_for(cases[0]), false);
  ASSERT_EQ(g.collisions.size(), 1u);
  EXPECT_EQ(g.collisions[0].node_a, 2);
  EXPECT_EQ(g.collisions[0].node_b, 3);
}

TEST(ScaEquivalence, RunsBreakAtGapsRemaindersAndWholePeriodOffsets) {
  // Three nodes whose runs meet an empty bucket (the gapped blocks), a
  // change of remainder (fractional skews, either order), or a whole-period
  // offset (skews of +-1 and 2 periods, alone and with a remainder), on
  // blocks, interleaved and transpose schedules.
  PscanTopology topo = straight_bus_topology(3, 4.0);
  const TimePs T = photonic::PhotonicClock(topo.clock).period_ps();
  CpSchedule gapped;
  gapped.total_slots = 20;
  gapped.node_cps.resize(3);
  gapped.node_cps[0].add(CpStride{0, 4, 4, 1, CpAction::kDrive});
  gapped.node_cps[1].add(CpStride{6, 3, 5, 2, CpAction::kDrive});
  gapped.node_cps[2].add(CpStride{9, 2, 2, 1, CpAction::kDrive});
  const std::vector<CpSchedule> schedules = {
      gapped, compile_gather_blocks(3, 5), compile_gather_interleaved(3, 4),
      compile_gather_transpose(3, 2, 4)};
  const std::vector<std::vector<TimePs>> skews = {
      {0, 0, 0},          {0, 5, 0},          {5, 0, 5},
      {0, 2 * T, 0},      {0, -T, 0},         {T + 3, 3, 0},
      {0, -T + 4, 2 * T}, {-2 * T, 0, T - 1}, {7, 7, 7}};
  for (std::size_t c = 0; c < schedules.size(); ++c) {
    for (const auto& skew : skews) {
      SCOPED_TRACE("schedule " + std::to_string(c) + " skew " +
                   std::to_string(skew[0]) + "," + std::to_string(skew[1]) +
                   "," + std::to_string(skew[2]));
      topo.skew_error_ps = skew;
      expect_gather_matches_oracle(ScaEngine(topo), schedules[c],
                                   data_for(schedules[c]));
    }
  }
}

TEST(ScaEquivalence, UnicastClaimsNameTheFirstConflictInEntryOrder) {
  // Node 0 listens on [0, 8), node 1 on [8, 12) and [14, 18). Node 2's
  // entry [12, 20) first meets a taken slot at 14, mid-entry, held by
  // node 1's second entry. Entries running past a 20-slot burst fail on
  // the first slot beyond it, unless a taken slot comes first.
  const ScaEngine engine(straight_bus_topology(3, 4.0));
  const auto schedule = [](const CpStride& last) {
    CpSchedule sched;
    sched.total_slots = 20;
    sched.node_cps.resize(3);
    sched.node_cps[0].add(CpStride{0, 8, 8, 1, CpAction::kListen});
    sched.node_cps[1].add(CpStride{8, 4, 6, 2, CpAction::kListen});
    sched.node_cps[2].add(last);
    return sched;
  };
  std::vector<Word> burst(20);
  for (std::size_t s = 0; s < burst.size(); ++s) burst[s] = 500 + s;
  const CpSchedule mid = schedule(CpStride{12, 8, 8, 1, CpAction::kListen});
  const auto got = outcome([&] { return engine.scatter(mid, burst); });
  ASSERT_EQ(got.index(), 1u);
  EXPECT_EQ(std::get<1>(got), "scatter: slot 14 claimed by nodes 1 and 2");
  expect_scatter_matches_oracle(engine, mid, burst);
  // Past the end, then a taken slot before the end, then wholly beyond it;
  // last, entries that leave [12, 14) unclaimed or claim every slot.
  for (const CpStride& last : {CpStride{18, 4, 4, 1, CpAction::kListen},
                               CpStride{12, 10, 10, 1, CpAction::kListen},
                               CpStride{20, 2, 2, 1, CpAction::kListen},
                               CpStride{18, 2, 2, 1, CpAction::kListen},
                               CpStride{12, 2, 6, 2, CpAction::kListen}}) {
    SCOPED_TRACE("node 2 stride at " + std::to_string(last.first) + " to " +
                 std::to_string(last.end()));
    expect_scatter_matches_oracle(engine, schedule(last), burst);
  }
}

TEST(ScaEquivalence, DoubleDrivenSlotReportsLowerNodeFirst) {
  // Nodes 0 and 2 carry the same skew fault and both drive slot 1, so their
  // records tie on (arrival_ps, slot). The stable merge keeps node order:
  // node 0's record first, and the collision reads node_a=0, node_b=2.
  PscanTopology topo = straight_bus_topology(3, 8.0);
  topo.skew_error_ps = {7, 0, 7};
  const ScaEngine engine(topo);
  CpSchedule sched;
  sched.total_slots = 4;
  sched.node_cps.resize(3);
  sched.node_cps[2].add(CpStride{1, 1, 1, 1, CpAction::kDrive});
  sched.node_cps[1].add(CpStride{0, 1, 3, 2, CpAction::kDrive});
  sched.node_cps[0].add(CpStride{1, 1, 1, 1, CpAction::kDrive});
  const std::vector<std::vector<Word>> data{{10}, {20, 21}, {30}};

  const GatherResult g = engine.gather(sched, data, /*strict=*/false);
  ASSERT_EQ(g.stream.size(), 4u);
  EXPECT_EQ(g.stream[1].source, 0);
  EXPECT_EQ(g.stream[2].source, 2);
  EXPECT_EQ(g.stream[1].arrival_ps, g.stream[2].arrival_ps);
  ASSERT_EQ(g.collisions.size(), 1u);
  EXPECT_EQ(g.collisions[0].node_a, 0);
  EXPECT_EQ(g.collisions[0].node_b, 2);
  EXPECT_EQ(g.collisions[0].slot_a, 1);
  EXPECT_EQ(g.collisions[0].slot_b, 1);
  EXPECT_EQ(g.collisions[0].overlap_ps, engine.clock().period_ps());
  expect_same(g, sca_reference::gather(engine, sched, data, false));

  try {
    (void)engine.gather(sched, data);
    FAIL() << "strict gather accepted a double-driven slot";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("between node 0 (slot 1) and node 2"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace psync::core
