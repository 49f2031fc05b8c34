#include "psync/core/sca.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "psync/common/check.hpp"

namespace psync::core {
namespace {

// Node i's gather words, whichever container holds them.
using NodeSpans = std::vector<std::span<const Word>>;

// Per node: perceived_edge_ps(x_i, 0) + skew_error_ps[i]. The clock is
// integer launch + s*T + flight(x) + detect, so node i perceives slot s at
// exactly edge0[i] + s*T: the clock math leaves the slot loops.
std::vector<TimePs> node_edge0_ps(const PscanTopology& topo,
                                  const photonic::PhotonicClock& clock) {
  std::vector<TimePs> edge0(topo.nodes());
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    const TimePs fault = topo.skew_error_ps.empty() ? 0 : topo.skew_error_ps[i];
    edge0[i] = clock.perceived_edge_ps(topo.node_pos_um[i], 0) + fault;
  }
  return edge0;
}

// Calls f(slot) for every slot `cp` drives: burst 0 of every stride, then
// burst 1, and so on. A node's strides usually interleave (a transpose CP
// is a comb of equal strides), and this order then visits its slots rising,
// as cache-friendly as the stream they land in.
template <class F>
void for_each_drive_slot(const CommProgram& cp, F&& f) {
  std::vector<const CpStride*> live;
  for (const CpStride& st : cp.strides()) {
    if (st.action == CpAction::kDrive) live.push_back(&st);
  }
  // Longest first, so round b only walks the strides that still have one.
  std::stable_sort(live.begin(), live.end(),
                   [](const CpStride* a, const CpStride* b) {
                     return a->count > b->count;
                   });
  for (Slot b = 0; !live.empty(); ++b) {
    while (!live.empty() && live.back()->count <= b) live.pop_back();
    for (const CpStride* st : live) {
      const Slot first = st->first + b * st->stride;
      for (Slot s = first; s < first + st->burst; ++s) f(s);
    }
  }
}

// The gather's input checks in the order a node-by-node expansion meets
// them: node i's overlapping entries, then its word count. Throws the
// first failure; returns if there is none.
void check_gather_inputs(const CpSchedule& schedule,
                         const NodeSpans& node_data,
                         bool strict) {
  for (std::size_t i = 0; i < schedule.nodes(); ++i) {
    Slot driven = 0;
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action == CpAction::kDrive) driven += e.length;
    }
    if (driven > static_cast<Slot>(node_data[i].size())) {
      throw SimulationError("gather: node " + std::to_string(i) +
                            " CP drives more slots than it has data");
    }
    if (strict && driven != static_cast<Slot>(node_data[i].size())) {
      throw SimulationError("gather: node " + std::to_string(i) + " has " +
                            std::to_string(node_data[i].size()) +
                            " words but CP drives " + std::to_string(driven) +
                            " slots");
    }
  }
}

// The gather's word count, after its input checks: node counts, then, for
// anything but drive-only programs whose word counts match, the
// entry-by-entry checks. Placement notices a drive-only program
// overlapping itself (a node twice in one bucket).
std::size_t checked_gather_words(
    const PscanTopology& topo, const CpSchedule& schedule,
    const NodeSpans& node_data, bool strict) {
  if (schedule.nodes() != topo.nodes()) {
    throw SimulationError("gather: schedule/topology node count mismatch");
  }
  if (node_data.size() != topo.nodes()) {
    throw SimulationError("gather: node_data size mismatch");
  }
  std::size_t words = 0;
  bool checked = false;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    const CommProgram& cp = schedule.node_cps[i];
    const Slot driven = cp.slot_count(CpAction::kDrive);
    const auto have = static_cast<Slot>(node_data[i].size());
    const bool drive_only = std::all_of(
        cp.strides().begin(), cp.strides().end(),
        [](const CpStride& st) { return st.action == CpAction::kDrive; });
    if (!checked &&
        (!drive_only || driven > have || (strict && driven != have))) {
      check_gather_inputs(schedule, node_data, strict);
      checked = true;
    }
    words += static_cast<std::size_t>(driven);
  }
  PSYNC_CHECK(words < 0xFFFFFFFFU);
  return words;
}

// A drive-only program drives one slot twice: report its overlap as the
// entry-by-entry checks do.
[[noreturn]] void throw_self_overlap(
    const CpSchedule& schedule, const NodeSpans& node_data, bool strict) {
  check_gather_inputs(schedule, node_data, strict);
  throw SimulationError("gather: node drives the same slot twice");
}

[[noreturn]] void throw_collision(const Collision& c) {
  throw SimulationError(
      "gather: waveguide collision between node " + std::to_string(c.node_a) +
      " (slot " + std::to_string(c.slot_a) + ") and node " +
      std::to_string(c.node_b) + " (slot " + std::to_string(c.slot_b) +
      "), overlap " + std::to_string(c.overlap_ps) + " ps");
}

// The placement core of every gather view. Calls
// visit(pos, word, node, slot, modulated_ps, arrival_ps) for each driven
// word in stream order, pos = 0, 1, ..., and returns the collisions and
// summary. The buckets live in `*work`.
//
// Node i's slot s arrives at slot_arrival_ps(0) + (s + whole_i)*T + frac_i,
// so two consecutive words overlap at the terminus exactly when they share
// an arrival period (a collision; the same node twice there is a program
// overlapping itself) or sit in adjacent periods with the later one's
// remainder smaller.
template <class Visit>
GatherSummary gather_core(const PscanTopology& topo,
                          const photonic::PhotonicClock& clock,
                          const CpSchedule& schedule,
                          const NodeSpans& node_data,
                          bool strict, ScaWork* work, Visit&& visit) {
  const std::size_t nodes = topo.nodes();
  const std::size_t words =
      checked_gather_words(topo, schedule, node_data, strict);

  // Node i's fault = whole periods + frac in [0, T): its slot s arrives in
  // period bucket s + whole, frac into it.
  struct NodeClock {
    Slot whole;
    TimePs frac;
    TimePs edge0;        // perceives slot s at edge0 + s*T
    TimePs to_terminus;  // imprinted energy continues downstream
    TimePs arrival0;     // arrival of its slot -whole (bucket 0)
    const Word* next;    // its next word in element (= slot) order
  };
  const TimePs period = clock.period_ps();
  const TimePs terminus_flight = clock.flight_ps(topo.terminus_um);
  const std::vector<TimePs> edge0 = node_edge0_ps(topo, clock);
  std::vector<NodeClock> nc(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const TimePs fault = topo.skew_error_ps.empty() ? 0 : topo.skew_error_ps[i];
    const Slot whole = fault / period - (fault % period < 0 ? 1 : 0);
    const TimePs to_terminus =
        terminus_flight - clock.flight_ps(topo.node_pos_um[i]);
    nc[i] = {whole, fault - whole * period, edge0[i], to_terminus,
             edge0[i] - whole * period + to_terminus, node_data[i].data()};
  }
  // Inside one bucket: earlier remainder first, then the smaller slot (the
  // larger whole offset), then the lower node.
  std::vector<std::uint32_t> by_rank(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    by_rank[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(by_rank.begin(), by_rank.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (nc[a].frac != nc[b].frac) return nc[a].frac < nc[b].frac;
              if (nc[a].whole != nc[b].whole) return nc[a].whole > nc[b].whole;
              return a < b;
            });

  // Stream order as buckets: bucket b holds the arrival period e(b) and
  // ends at stream position end[b]; node_at[pos] drives position pos.
  // Buckets are the periods lo..hi, or, when faults spread the stream over
  // far more periods than it has words, the distinct periods of sorted
  // (bucket, rank) keys, so memory follows the words, not the skew.
  // The first modulation is some node's first driven slot.
  bool any = false;
  Slot lo = 0;
  Slot hi = 0;
  TimePs first_mod = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
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
  std::vector<std::uint32_t>& node_at = work->order;
  std::vector<std::uint32_t>& end = work->counts;
  node_at.resize(words);
  end.clear();
  std::vector<Slot> period_of;  // sparse buckets only
  if (static_cast<std::uint64_t>(hi - lo) < 2 * words + 64) {
    // Counting placement: end[b + 1] = words in bucket b, so after the
    // prefix sum end[b] is where bucket b starts, and placing nodes in rank
    // order advances it to where bucket b ends.
    end.assign(static_cast<std::size_t>(hi - lo) + 2, 0);
    for (std::size_t i = 0; i < nodes; ++i) {
      const Slot off = nc[i].whole - lo + 1;
      for_each_drive_slot(schedule.node_cps[i], [&](Slot s) {
        ++end[static_cast<std::size_t>(s + off)];
      });
    }
    for (std::size_t b = 1; b < end.size(); ++b) end[b] += end[b - 1];
    for (const std::uint32_t i : by_rank) {
      const Slot off = nc[i].whole - lo;
      for_each_drive_slot(schedule.node_cps[i], [&](Slot s) {
        node_at[end[static_cast<std::size_t>(s + off)]++] = i;
      });
    }
    end.pop_back();
  } else {
    struct Key {
      Slot e;
      std::uint32_t rank, node;
    };
    std::vector<Key> keys;
    keys.reserve(words);
    for (std::uint32_t r = 0; r < nodes; ++r) {
      const std::uint32_t i = by_rank[r];
      for_each_drive_slot(schedule.node_cps[i], [&](Slot s) {
        keys.push_back({s + nc[i].whole, r, i});
      });
    }
    std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
      return x.e != y.e ? x.e < y.e : x.rank < y.rank;
    });
    for (std::size_t pos = 0; pos < keys.size(); ++pos) {
      node_at[pos] = keys[pos].node;
      if (pos + 1 == keys.size() || keys[pos + 1].e != keys[pos].e) {
        period_of.push_back(keys[pos].e);
        end.push_back(static_cast<std::uint32_t>(pos + 1));
      }
    }
  }

  // The scan state stays in locals the visitor cannot alias. The first
  // word's predecessor is placed one period earlier: no overlap, no gap.
  const auto period_at = [&](std::size_t b) {
    return period_of.empty() ? lo + static_cast<Slot>(b) : period_of[b];
  };
  std::vector<Collision> collisions;
  bool gap_free = words > 0;
  TimePs first_arrival = 0;
  TimePs prev_arrival = 0;
  Slot prev_e = 0;
  auto prev_node = static_cast<std::uint32_t>(nodes);
  if (words > 0) {
    std::size_t b = 0;
    while (end[b] == 0) ++b;
    first_arrival = nc[node_at[0]].arrival0 + period_at(b) * period;
    prev_arrival = first_arrival - period;
  }
  std::size_t pos = 0;
  for (std::size_t b = 0; b < end.size(); ++b) {
    const Slot e = period_at(b);
    for (; pos < end[b]; ++pos) {
      const std::uint32_t node = node_at[pos];
      NodeClock& n = nc[node];
      const TimePs arrival = n.arrival0 + e * period;
      // Each slot occupies [arrival, arrival + period) at the terminus.
      const TimePs overlap = (prev_arrival + period) - arrival;
      if (overlap > 0) {
        if (node == prev_node) throw_self_overlap(schedule, node_data, strict);
        collisions.push_back(Collision{
            static_cast<std::int32_t>(prev_node),
            static_cast<std::int32_t>(node), prev_e - nc[prev_node].whole,
            e - n.whole, overlap});
      }
      gap_free = gap_free && overlap == 0;
      visit(pos, *n.next++, node, e - n.whole, arrival - n.to_terminus,
            arrival);
      prev_arrival = arrival;
      prev_e = e;
      prev_node = node;
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

// Every node's listen entries (kListen only), checked against the burst
// (and, for a unicast, against each other) in node, entry, slot order.
// Leaves the listener count of every burst slot in work->counts, and fills
// what every scatter view shares: received words, unclaimed slots, span.
std::vector<std::vector<CpEntry>> scatter_core(
    const PscanTopology& topo, const photonic::PhotonicClock& clock,
    const CpSchedule& schedule, const std::vector<Word>& burst, bool strict,
    bool multicast, NodeWords* received, ScatterSummary* out,
    ScaWork* work) {
  const std::string who = multicast ? "scatter_multicast" : "scatter";
  if (schedule.nodes() != topo.nodes()) {
    throw SimulationError(who + ": schedule/topology node count mismatch");
  }
  std::vector<std::vector<CpEntry>> entries(topo.nodes());
  std::vector<std::uint32_t>& count = work->counts;
  count.assign(burst.size(), 0);
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kListen) continue;
      for (Slot s = e.begin; s < e.end(); ++s) {
        if (s < 0 || static_cast<std::size_t>(s) >= burst.size()) {
          throw SimulationError(multicast
                                    ? "scatter_multicast: CP beyond the burst"
                                    : "scatter: CP listens beyond the burst");
        }
        auto& c = count[static_cast<std::size_t>(s)];
        if (!multicast && c != 0) {
          // The earlier listener: entries never overlap within a node.
          std::size_t o = 0;
          while (std::none_of(entries[o].begin(), entries[o].end(),
                              [&](const CpEntry& x) {
                                return x.begin <= s && s < x.end();
                              })) {
            ++o;
          }
          throw SimulationError("scatter: slot " + std::to_string(s) +
                                " claimed by nodes " + std::to_string(o) +
                                " and " + std::to_string(i));
        }
        ++c;
      }
      entries[i].push_back(e);
    }
  }

  for (std::size_t s = 0; s < burst.size(); ++s) {
    if (count[s] == 0) out->unclaimed_slots.push_back(static_cast<Slot>(s));
  }
  if (strict && !out->unclaimed_slots.empty()) {
    throw SimulationError(who + ": " +
                          std::to_string(out->unclaimed_slots.size()) +
                          " burst slots have no listener");
  }

  // Node i latches slot s as it passes its tap: edge0[i] + s*T.
  const std::vector<TimePs> edge0 = node_edge0_ps(topo, clock);
  const TimePs period = clock.period_ps();
  received->offset.resize(topo.nodes() + 1);
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    std::size_t n = 0;
    for (const CpEntry& e : entries[i]) n += static_cast<std::size_t>(e.length);
    received->offset[i + 1] = received->offset[i] + n;
  }
  received->words.resize(received->offset.back());
  bool any = false;
  TimePs lo = 0;
  TimePs hi = 0;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    Word* got = received->node(i).data();
    for (const CpEntry& e : entries[i]) {
      got = std::copy(burst.begin() + e.begin, burst.begin() + e.end(), got);
      const TimePs first = edge0[i] + e.begin * period;
      const TimePs last = edge0[i] + (e.end() - 1) * period;
      lo = any ? std::min(lo, first) : first;
      hi = any ? std::max(hi, last) : last;
      any = true;
    }
  }
  if (any) out->span_ps = (hi - lo) + period;
  return entries;
}

// Per-slot delivery records in (slot, node) order: each node's words go to
// the positions its slots' listener counts reserve, nodes in order.
ScatterResult scatter_records(const PscanTopology& topo,
                              const photonic::PhotonicClock& clock,
                              const CpSchedule& schedule,
                              const std::vector<Word>& burst, bool strict,
                              bool multicast) {
  ScatterResult out;
  ScaWork work;
  NodeWords received;
  const std::vector<std::vector<CpEntry>> entries = scatter_core(
      topo, clock, schedule, burst, strict, multicast, &received, &out, &work);
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
  const std::vector<TimePs> edge0 = node_edge0_ps(topo, clock);
  const TimePs period = clock.period_ps();
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    std::int64_t element = 0;
    for (const CpEntry& e : entries[i]) {
      for (Slot s = e.begin; s < e.end(); ++s, ++element) {
        const auto at = static_cast<std::size_t>(s);
        out.deliveries[count[at]++] =
            DeliveryRecord{s, burst[at], static_cast<std::int32_t>(i), element,
                           edge0[i] + s * period};
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

TimePs ScaEngine::slot_arrival_ps(Slot s) const {
  // launch + s*T + flight(terminus) + detect latency.
  return clock_.perceived_edge_ps(topo_.terminus_um, s);
}

GatherResult ScaEngine::gather(
    const CpSchedule& schedule, const std::vector<std::vector<Word>>& node_data,
    bool strict) const {
  GatherResult out;
  std::size_t words = 0;
  for (const auto& d : node_data) words += d.size();
  out.stream.reserve(words);
  ScaWork work;
  const NodeSpans spans(node_data.begin(), node_data.end());
  static_cast<GatherSummary&>(out) = gather_core(
      topo_, clock_, schedule, spans, strict, &work,
      [&](std::size_t, Word word, std::uint32_t node, Slot slot,
          TimePs modulated, TimePs arrival) {
        out.stream.push_back(SlotRecord{
            slot, word, static_cast<std::int32_t>(node), arrival, modulated});
      });
  return out;
}

GatherSummary ScaEngine::gather_words(const CpSchedule& schedule,
                                      const NodeWords& node_data,
                                      std::vector<Word>* words, ScaWork* work,
                                      bool strict) const {
  NodeSpans spans(node_data.nodes());
  for (std::size_t i = 0; i < spans.size(); ++i) spans[i] = node_data.node(i);
  words->resize(node_data.offset.back());
  Word* dst = words->data();
  GatherSummary out = gather_core(
      topo_, clock_, schedule, spans, strict, work,
      [dst](std::size_t pos, Word word, std::uint32_t, Slot, TimePs, TimePs) {
        dst[pos] = word;
      });
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
  return scatter_records(topo_, clock_, schedule, burst, strict,
                         /*multicast=*/false);
}

ScatterWords ScaEngine::scatter_words(const CpSchedule& schedule,
                                      const std::vector<Word>& burst,
                                      NodeWords* received, ScaWork* work,
                                      bool strict) const {
  ScatterWords out;
  const std::vector<std::vector<CpEntry>> entries =
      scatter_core(topo_, clock_, schedule, burst, strict,
                   /*multicast=*/false, received, &out, work);
  const std::vector<TimePs> edge0 = node_edge0_ps(topo_, clock_);
  out.latch_ps.resize(topo_.nodes());
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    out.latch_ps[i].reserve(entries[i].size());
    for (const CpEntry& e : entries[i]) {
      out.latch_ps[i].push_back(edge0[i] + e.begin * clock_.period_ps());
    }
  }
  return out;
}

ScatterResult ScaEngine::scatter_multicast(const CpSchedule& schedule,
                                           const std::vector<Word>& burst,
                                           bool strict) const {
  return scatter_records(topo_, clock_, schedule, burst, strict,
                         /*multicast=*/true);
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
