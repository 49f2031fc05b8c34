#include "psync/core/sca.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "psync/common/check.hpp"

namespace psync::core {
namespace {

using NodeClock = ScaWork::NodeClock;

// Fills work->clock from the topology. The clock is integer launch + s*T +
// flight(x) + detect, so node i perceives slot s at exactly edge0 + s*T:
// the clock math leaves the slot loops.
void node_clocks(const PscanTopology& topo,
                 const photonic::PhotonicClock& clock, ScaWork* work) {
  const TimePs period = clock.period_ps();
  const TimePs terminus_flight = clock.flight_ps(topo.terminus_um);
  work->clock.resize(topo.nodes());
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    const TimePs fault = topo.skew_error_ps.empty() ? 0 : topo.skew_error_ps[i];
    const Slot whole = fault / period - (fault % period < 0 ? 1 : 0);
    const TimePs edge0 =
        clock.perceived_edge_ps(topo.node_pos_um[i], 0) + fault;
    const TimePs to_terminus =
        terminus_flight - clock.flight_ps(topo.node_pos_um[i]);
    work->clock[i] = {whole,       fault - whole * period,
                      edge0,       to_terminus,
                      edge0 - whole * period + to_terminus, nullptr};
  }
}

// Calls f(first, burst) for every burst `cp` drives.
template <class F>
void for_each_drive_burst(const CommProgram& cp, F&& f) {
  for (const CpStride& st : cp.strides()) {
    if (st.action != CpAction::kDrive) continue;
    for (Slot b = 0; b < st.count; ++b) f(st.first + b * st.stride, st.burst);
  }
}

// The gather's input checks in the order a node-by-node expansion meets
// them: node i's overlapping entries, then its word count. Throws the
// first failure; returns if there is none. data(i) is node i's words.
template <class Data>
void check_gather_inputs(const CpSchedule& schedule, const Data& data,
                         bool strict) {
  for (std::size_t i = 0; i < schedule.nodes(); ++i) {
    Slot driven = 0;
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action == CpAction::kDrive) driven += e.length;
    }
    const std::size_t have = data(i).size();
    if (driven > static_cast<Slot>(have)) {
      throw SimulationError("gather: node " + std::to_string(i) +
                            " CP drives more slots than it has data");
    }
    if (strict && driven != static_cast<Slot>(have)) {
      throw SimulationError("gather: node " + std::to_string(i) + " has " +
                            std::to_string(have) + " words but CP drives " +
                            std::to_string(driven) + " slots");
    }
  }
}

// The gather's word count, after its input checks: node counts, then, for
// anything but drive-only programs whose word counts match, the
// entry-by-entry checks. Placement notices a drive-only program
// overlapping itself (a node twice in one bucket).
template <class Data>
std::size_t checked_gather_words(const PscanTopology& topo,
                                 const CpSchedule& schedule,
                                 std::size_t data_nodes, const Data& data,
                                 bool strict) {
  if (schedule.nodes() != topo.nodes()) {
    throw SimulationError("gather: schedule/topology node count mismatch");
  }
  if (data_nodes != topo.nodes()) {
    throw SimulationError("gather: node_data size mismatch");
  }
  std::size_t words = 0;
  bool checked = false;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    const CommProgram& cp = schedule.node_cps[i];
    const Slot driven = cp.slot_count(CpAction::kDrive);
    const auto have = static_cast<Slot>(data(i).size());
    const bool drive_only = std::all_of(
        cp.strides().begin(), cp.strides().end(),
        [](const CpStride& st) { return st.action == CpAction::kDrive; });
    if (!checked &&
        (!drive_only || driven > have || (strict && driven != have))) {
      check_gather_inputs(schedule, data, strict);
      checked = true;
    }
    words += static_cast<std::size_t>(driven);
  }
  PSYNC_CHECK(words < 0xFFFFFFFFU);
  return words;
}

// A drive-only program drives one slot twice: report its overlap as the
// entry-by-entry checks do.
template <class Data>
[[noreturn]] void throw_self_overlap(const CpSchedule& schedule,
                                     const Data& data, bool strict) {
  check_gather_inputs(schedule, data, strict);
  throw SimulationError("gather: node drives the same slot twice");
}

[[noreturn]] void throw_collision(const Collision& c) {
  throw SimulationError(
      "gather: waveguide collision between node " + std::to_string(c.node_a) +
      " (slot " + std::to_string(c.slot_a) + ") and node " +
      std::to_string(c.node_b) + " (slot " + std::to_string(c.slot_b) +
      "), overlap " + std::to_string(c.overlap_ps) + " ps");
}

constexpr std::uint32_t kNoNode = 0xFFFFFFFFU;

// Owner-map placement: owner[b] = the node whose word arrives in period
// lo + b, or kNoNode. Returns false when a bucket is written twice: two
// words in one period always overlap, so only a collision (or a program
// driving a slot twice) does that, and the sorted placement orders it.
bool place_owners(const CpSchedule& schedule, const std::vector<NodeClock>& nc,
                  Slot lo, Slot hi, std::vector<std::uint32_t>* owner) {
  owner->assign(static_cast<std::size_t>(hi - lo) + 1, kNoNode);
  std::uint32_t* own = owner->data();
  bool twice = false;
  for (std::uint32_t i = 0; i < schedule.nodes(); ++i) {
    const Slot off = nc[i].whole - lo;
    for_each_drive_burst(schedule.node_cps[i], [&](Slot first, Slot burst) {
      std::uint32_t* b = own + (first + off);
      for (Slot s = 0; s < burst; ++s) {
        twice |= b[s] != kNoNode;
        b[s] = i;
      }
    });
  }
  return !twice;
}

// Sorted placement: one (period, rank) key per word. Inside one bucket:
// earlier remainder first, then the smaller slot (the larger whole
// offset), then the lower node.
void place_keys(const CpSchedule& schedule, std::size_t words,
                ScaWork* work) {
  const std::vector<NodeClock>& nc = work->clock;
  std::vector<std::uint32_t>& by_rank = work->order;
  by_rank.resize(nc.size());
  for (std::size_t i = 0; i < nc.size(); ++i) {
    by_rank[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(by_rank.begin(), by_rank.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (nc[a].frac != nc[b].frac) return nc[a].frac < nc[b].frac;
              if (nc[a].whole != nc[b].whole) return nc[a].whole > nc[b].whole;
              return a < b;
            });
  std::vector<ScaWork::Key>& keys = work->keys;
  keys.clear();
  keys.reserve(words);
  for (std::uint32_t r = 0; r < by_rank.size(); ++r) {
    const std::uint32_t i = by_rank[r];
    for_each_drive_burst(schedule.node_cps[i], [&](Slot first, Slot burst) {
      for (Slot s = first; s < first + burst; ++s) {
        keys.push_back({s + nc[i].whole, r, i});
      }
    });
  }
  std::sort(keys.begin(), keys.end(),
            [](const ScaWork::Key& x, const ScaWork::Key& y) {
              return x.period != y.period ? x.period < y.period
                                          : x.rank < y.rank;
            });
}

// The placement core of every gather view. Calls
// visit(pos, words, len, node, slot, modulated_ps, arrival_ps) for each run
// of `len` words that node `node` drives in consecutive arrival periods, in
// stream order: words[k] goes to stream position pos + k, driven in slot
// slot + k, modulated and arriving k periods after the run's first word.
// Returns the collisions and summary. data(i) is node i's words; the
// placement lives in `*work`.
//
// Node i's slot s reaches the terminus (s + whole_i)*T + frac_i after slot
// 0 does, so two consecutive words overlap at the terminus exactly when
// they share an arrival period (a collision; the same node twice there is
// a program overlapping itself) or sit in adjacent periods with the later
// one's remainder smaller. Inside a run neither can happen.
template <class Data, class Visit>
GatherSummary gather_core(const PscanTopology& topo,
                          const photonic::PhotonicClock& clock,
                          const CpSchedule& schedule, std::size_t data_nodes,
                          const Data& data, bool strict, ScaWork* work,
                          Visit&& visit) {
  const std::size_t words =
      checked_gather_words(topo, schedule, data_nodes, data, strict);
  const TimePs period = clock.period_ps();
  node_clocks(topo, clock, work);
  std::vector<NodeClock>& nc = work->clock;
  for (std::size_t i = 0; i < nc.size(); ++i) nc[i].next = data(i).data();

  // The periods lo..hi the stream spans. The first modulation is some
  // node's first driven slot.
  bool any = false;
  Slot lo = 0;
  Slot hi = 0;
  TimePs first_mod = 0;
  for (std::size_t i = 0; i < nc.size(); ++i) {
    for (const CpStride& st : schedule.node_cps[i].strides()) {
      if (st.action != CpAction::kDrive) continue;
      const Slot first = st.first + nc[i].whole;
      const Slot last = st.end() - 1 + nc[i].whole;
      const TimePs mod = nc[i].edge0 + st.first * period;
      lo = any ? std::min(lo, first) : first;
      hi = any ? std::max(hi, last) : last;
      first_mod = any ? std::min(first_mod, mod) : mod;
      any = true;
    }
  }

  // The scan state stays in locals the visitor cannot alias. The first
  // word's predecessor is placed one period earlier: no overlap, no gap.
  std::vector<Collision> collisions;
  bool gap_free = words > 0;
  TimePs first_arrival = 0;
  TimePs prev_arrival = 0;
  Slot prev_e = 0;
  auto prev_node = static_cast<std::uint32_t>(nc.size());
  std::size_t pos = 0;
  const auto run = [&](std::uint32_t node, Slot e, std::size_t len) {
    NodeClock& n = nc[node];
    const TimePs arrival = n.arrival0 + e * period;
    if (pos == 0) {
      first_arrival = arrival;
      prev_arrival = arrival - period;
    }
    // Each slot occupies [arrival, arrival + period) at the terminus.
    const TimePs overlap = (prev_arrival + period) - arrival;
    if (overlap > 0) {
      if (node == prev_node) throw_self_overlap(schedule, data, strict);
      collisions.push_back(Collision{
          static_cast<std::int32_t>(prev_node),
          static_cast<std::int32_t>(node), prev_e - nc[prev_node].whole,
          e - n.whole, overlap});
    }
    gap_free = gap_free && overlap == 0;
    visit(pos, n.next, len, node, e - n.whole, arrival - n.to_terminus,
          arrival);
    n.next += len;
    pos += len;
    const auto more = static_cast<Slot>(len - 1);
    prev_arrival = arrival + more * period;
    prev_e = e + more;
    prev_node = node;
  };

  // Words of one node in consecutive periods form a run; faults spread
  // over far more periods than words sort instead, so memory follows the
  // words, not the skew.
  std::vector<std::uint32_t>& owner = work->counts;
  if (static_cast<std::uint64_t>(hi - lo) < 2 * words + 64 &&
      place_owners(schedule, nc, lo, hi, &owner)) {
    const std::uint32_t* own = owner.data();
    const std::size_t buckets = owner.size();
    for (std::size_t b = 0; b < buckets;) {
      const std::uint32_t node = own[b];
      std::size_t end = b + 1;
      if (node != kNoNode) {
        while (end < buckets && own[end] == node) ++end;
        run(node, lo + static_cast<Slot>(b), end - b);
      }
      b = end;
    }
  } else {
    place_keys(schedule, words, work);
    const std::vector<ScaWork::Key>& keys = work->keys;
    for (std::size_t k = 0; k < keys.size();) {
      std::size_t end = k + 1;
      while (end < keys.size() && keys[end].node == keys[k].node &&
             keys[end].period == keys[end - 1].period + 1) {
        ++end;
      }
      run(keys[k].node, keys[k].period, end - k);
      k = end;
    }
  }

  if (strict && !collisions.empty()) throw_collision(collisions.front());
  GatherSummary out;
  out.collisions = std::move(collisions);
  out.gap_free = gap_free;
  if (words > 0) {
    out.first_arrival_ps = first_arrival;
    out.span_ps = (prev_arrival + period) - first_mod;
    const TimePs window = (prev_arrival - first_arrival) + period;
    out.utilization = static_cast<double>(words) *
                      static_cast<double>(period) / static_cast<double>(window);
  }
  return out;
}

// A listen entry of node i claims slot s, which an earlier entry
// holds: name the first such slot of [begin, stop) and the node whose
// entry holds it (entries never overlap within a node).
[[noreturn]] void throw_double_claim(const std::vector<std::uint32_t>& count,
                                     const ScaWork& work, Slot begin,
                                     Slot stop, std::size_t i) {
  Slot s = begin;
  while (s < stop && count[static_cast<std::size_t>(s)] == 0) ++s;
  const auto held = std::find_if(
      work.entries.begin(), work.entries.end(),
      [&](const CpEntry& x) { return x.begin <= s && s < x.end(); });
  const auto k = static_cast<std::size_t>(held - work.entries.begin());
  std::size_t o = 0;
  while (work.entry_at[o + 1] <= k) ++o;
  throw SimulationError("scatter: slot " + std::to_string(s) +
                        " claimed by nodes " + std::to_string(o) + " and " +
                        std::to_string(i));
}

// A strict scatter left `n` burst slots without a listener.
[[noreturn]] void throw_unclaimed(std::size_t n) {
  throw SimulationError("scatter: " + std::to_string(n) +
                        " burst slots have no listener");
}

// Every node's listen entries (kListen only), checked against the burst
// and against each other in node, entry, slot order, go to work->entries
// (node i's from work->entry_at[i]). Leaves the listener count of every
// burst slot in work->counts and the node clocks in work->clock, and fills
// what every scatter view shares: received words, unclaimed slots, span.
void scatter_core(const PscanTopology& topo,
                  const photonic::PhotonicClock& clock,
                  const CpSchedule& schedule, const std::vector<Word>& burst,
                  bool strict, NodeWords* received, ScatterSummary* out,
                  ScaWork* work) {
  if (schedule.nodes() != topo.nodes()) {
    throw SimulationError("scatter: schedule/topology node count mismatch");
  }
  std::vector<CpEntry>& entries = work->entries;
  std::vector<std::size_t>& entry_at = work->entry_at;
  entries.clear();
  entry_at.assign(1, 0);
  std::vector<std::uint32_t>& count = work->counts;
  count.assign(burst.size(), 0);
  const auto size = static_cast<Slot>(burst.size());
  std::size_t claimed = 0;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kListen) continue;
      // Entries start at slot 0 or later (CommProgram::add). An entry
      // meets a double claim inside the burst before its end.
      const Slot stop = std::min(e.end(), size);
      std::uint32_t taken = 0;
      for (Slot s = e.begin; s < stop; ++s) {
        taken |= count[static_cast<std::size_t>(s)];
      }
      if (taken != 0) throw_double_claim(count, *work, e.begin, stop, i);
      if (e.end() > size) {
        throw SimulationError("scatter: CP listens beyond the burst");
      }
      std::fill_n(count.data() + e.begin, e.length, 1U);
      claimed += static_cast<std::size_t>(e.length);
      entries.push_back(e);
    }
    entry_at.push_back(entries.size());
  }

  // Each slot is claimed at most once, so claiming as many slots as the
  // burst has leaves none unclaimed.
  if (claimed != burst.size()) {
    for (std::size_t s = 0; s < burst.size(); ++s) {
      if (count[s] == 0) out->unclaimed_slots.push_back(static_cast<Slot>(s));
    }
  }
  if (strict && !out->unclaimed_slots.empty()) {
    throw_unclaimed(out->unclaimed_slots.size());
  }

  // Node i latches slot s as it passes its tap: edge0 + s*T.
  node_clocks(topo, clock, work);
  const TimePs period = clock.period_ps();
  received->offset.resize(topo.nodes() + 1);
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    std::size_t n = 0;
    for (std::size_t k = entry_at[i]; k < entry_at[i + 1]; ++k) {
      n += static_cast<std::size_t>(entries[k].length);
    }
    received->offset[i + 1] = received->offset[i] + n;
  }
  received->words.resize(received->offset.back());
  bool any = false;
  TimePs lo = 0;
  TimePs hi = 0;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    Word* got = received->node(i).data();
    const TimePs edge0 = work->clock[i].edge0;
    for (std::size_t k = entry_at[i]; k < entry_at[i + 1]; ++k) {
      const CpEntry& e = entries[k];
      got = std::copy(burst.begin() + e.begin, burst.begin() + e.end(), got);
      const TimePs first = edge0 + e.begin * period;
      const TimePs last = edge0 + (e.end() - 1) * period;
      lo = any ? std::min(lo, first) : first;
      hi = any ? std::max(hi, last) : last;
      any = true;
    }
  }
  if (any) out->span_ps = (hi - lo) + period;
}

// Per-slot delivery records in slot order: each node's words go to the
// positions its slots' listener counts reserve.
ScatterResult scatter_records(const PscanTopology& topo,
                              const photonic::PhotonicClock& clock,
                              const CpSchedule& schedule,
                              const std::vector<Word>& burst, bool strict) {
  ScatterResult out;
  ScaWork work;
  NodeWords received;
  scatter_core(topo, clock, schedule, burst, strict, &received, &out, &work);
  for (std::size_t i = 0; i < received.nodes(); ++i) {
    out.received.emplace_back(received.node(i).begin(),
                              received.node(i).end());
  }
  std::vector<std::uint32_t>& count = work.counts;
  std::uint32_t total = 0;
  for (auto& c : count) {
    const std::uint32_t n = c;
    c = total;
    total += n;
  }
  out.deliveries.resize(total);
  const TimePs period = clock.period_ps();
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    std::int64_t element = 0;
    for (std::size_t k = work.entry_at[i]; k < work.entry_at[i + 1]; ++k) {
      const CpEntry& e = work.entries[k];
      for (Slot s = e.begin; s < e.end(); ++s, ++element) {
        const auto at = static_cast<std::size_t>(s);
        out.deliveries[count[at]++] =
            DeliveryRecord{s, burst[at], static_cast<std::int32_t>(i), element,
                           work.clock[i].edge0 + s * period};
      }
    }
  }
  return out;
}

}  // namespace

void PscanTopology::validate() const {
  if (node_pos_um.empty()) {
    throw SimulationError("PscanTopology: no nodes");
  }
  for (std::size_t i = 0; i < node_pos_um.size(); ++i) {
    if (node_pos_um[i] < 0.0) {
      throw SimulationError("PscanTopology: negative node position");
    }
    if (i > 0 && node_pos_um[i] <= node_pos_um[i - 1]) {
      throw SimulationError(
          "PscanTopology: node positions must strictly increase downstream");
    }
  }
  if (terminus_um < node_pos_um.back()) {
    throw SimulationError("PscanTopology: terminus upstream of last node");
  }
  if (head_um > node_pos_um.front()) {
    throw SimulationError("PscanTopology: head downstream of first node");
  }
  if (!skew_error_ps.empty() && skew_error_ps.size() != node_pos_um.size()) {
    throw SimulationError("PscanTopology: skew_error size mismatch");
  }
}

void NodeWords::resize_equal(std::size_t nodes, std::size_t per_node) {
  words.resize(nodes * per_node);
  offset.resize(nodes + 1);
  for (std::size_t i = 0; i <= nodes; ++i) offset[i] = i * per_node;
}

std::vector<Word> GatherResult::words() const {
  std::vector<Word> out;
  out.reserve(stream.size());
  for (const auto& r : stream) out.push_back(r.word);
  return out;
}

ScaEngine::ScaEngine(PscanTopology topology)
    : topo_(std::move(topology)), clock_(topo_.clock) {
  topo_.validate();
  check_budget();
}

void ScaEngine::check_budget() const {
  if (!topo_.budget.has_value()) return;
  const auto& budget = *topo_.budget;
  // The worst-case optical path: full bus length with every node's detuned
  // ring in the way. Approximate ring count with the node count (Eq. 2-3).
  photonic::LinkBudgetParams p = budget;
  const double length_cm = units::um_to_cm(topo_.terminus_um - topo_.head_um);
  const double n = static_cast<double>(topo_.nodes());
  p.modulator_pitch_cm = n > 0 ? length_cm / n : length_cm;
  if (photonic::max_segments(p) < topo_.nodes()) {
    throw SimulationError(
        "PSCAN link budget does not close for " +
        std::to_string(topo_.nodes()) + " nodes over " +
        std::to_string(length_cm) + " cm (Eq. 3 bound: " +
        std::to_string(photonic::max_segments(p)) + "); add repeaters");
  }
}

GatherResult ScaEngine::gather(
    const CpSchedule& schedule, const std::vector<std::vector<Word>>& node_data,
    bool strict) const {
  GatherResult out;
  std::size_t words = 0;
  for (const auto& d : node_data) words += d.size();
  out.stream.reserve(words);
  ScaWork work;
  const TimePs period = clock_.period_ps();
  static_cast<GatherSummary&>(out) = gather_core(
      topo_, clock_, schedule, node_data.size(),
      [&](std::size_t i) { return std::span<const Word>(node_data[i]); },
      strict, &work,
      [&](std::size_t, const Word* word, std::size_t len, std::uint32_t node,
          Slot slot, TimePs modulated, TimePs arrival) {
        for (std::size_t k = 0; k < len; ++k) {
          const auto at = static_cast<TimePs>(k) * period;
          out.stream.push_back(SlotRecord{slot + static_cast<Slot>(k),
                                          word[k],
                                          static_cast<std::int32_t>(node),
                                          arrival + at, modulated + at});
        }
      });
  return out;
}

GatherSummary ScaEngine::gather_words(const CpSchedule& schedule,
                                      const NodeWords& node_data,
                                      std::vector<Word>* words, ScaWork* work,
                                      bool strict) const {
  words->resize(node_data.offset.back());
  Word* dst = words->data();
  GatherSummary out = gather_core(
      topo_, clock_, schedule, node_data.nodes(),
      [&](std::size_t i) { return node_data.node(i); }, strict, work,
      [dst](std::size_t pos, const Word* word, std::size_t len, std::uint32_t,
            Slot, TimePs, TimePs) { std::copy_n(word, len, dst + pos); });
  // Non-strict inputs may drive fewer slots than they hold words.
  std::size_t driven = 0;
  for (const auto& cp : schedule.node_cps) {
    driven += static_cast<std::size_t>(cp.slot_count(CpAction::kDrive));
  }
  words->resize(driven);
  return out;
}

ScatterResult ScaEngine::scatter(const CpSchedule& schedule,
                                 const std::vector<Word>& burst,
                                 bool strict) const {
  return scatter_records(topo_, clock_, schedule, burst, strict);
}

ScatterWords ScaEngine::scatter_words(const CpSchedule& schedule,
                                      const std::vector<Word>& burst,
                                      NodeWords* received, ScaWork* work,
                                      bool strict) const {
  ScatterWords out;
  scatter_core(topo_, clock_, schedule, burst, strict, received, &out, work);
  work->latch_ps.resize(work->entries.size());
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    for (std::size_t k = work->entry_at[i]; k < work->entry_at[i + 1]; ++k) {
      work->latch_ps[k] =
          work->clock[i].edge0 + work->entries[k].begin * clock_.period_ps();
    }
  }
  out.latch_ps = work->latch_ps;
  out.entry_at = work->entry_at;
  return out;
}

PscanTopology straight_bus_topology(std::size_t nodes, double length_cm,
                                    photonic::ClockParams clock) {
  PSYNC_CHECK(nodes > 0);
  PSYNC_CHECK(length_cm > 0.0);
  PscanTopology topo;
  topo.clock = clock;
  const double len_um = units::cm_to_um(length_cm);
  const double pitch = len_um / static_cast<double>(nodes + 1);
  topo.node_pos_um.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    topo.node_pos_um[i] = pitch * static_cast<double>(i + 1);
  }
  topo.terminus_um = len_um;
  topo.head_um = 0.0;
  return topo;
}

}  // namespace psync::core
