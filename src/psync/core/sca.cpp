#include "psync/core/sca.hpp"

#include <algorithm>
#include <string>

#include "psync/common/check.hpp"
#include "psync/core/run_merge.hpp"

namespace psync::core {
namespace {

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
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError("gather: schedule/topology node count mismatch");
  }
  if (node_data.size() != topo_.nodes()) {
    throw SimulationError("gather: node_data size mismatch");
  }

  const TimePs period = clock_.period_ps();
  const TimePs terminus_flight = clock_.flight_ps(topo_.terminus_um);
  GatherResult out;
  std::size_t words = 0;
  for (const auto& d : node_data) words += d.size();
  out.stream.reserve(words);
  const std::vector<TimePs> edge0 = node_edge0_ps(topo_, clock_);
  std::vector<std::size_t> runs{0};

  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    // Imprinted energy continues downstream to the terminus.
    const TimePs to_terminus =
        terminus_flight - clock_.flight_ps(topo_.node_pos_um[i]);
    std::size_t element = 0;
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kDrive) continue;
      for (Slot s = e.begin; s < e.end(); ++s, ++element) {
        if (element >= node_data[i].size()) {
          throw SimulationError("gather: node " + std::to_string(i) +
                                " CP drives more slots than it has data");
        }
        SlotRecord rec;
        rec.slot = s;
        rec.word = node_data[i][element];
        rec.source = static_cast<std::int32_t>(i);
        rec.modulated_ps = edge0[i] + s * period;
        rec.arrival_ps = rec.modulated_ps + to_terminus;
        out.stream.push_back(rec);
      }
    }
    if (strict && element != node_data[i].size()) {
      throw SimulationError("gather: node " + std::to_string(i) + " has " +
                            std::to_string(node_data[i].size()) +
                            " words but CP drives " + std::to_string(element) +
                            " slots");
    }
    runs.push_back(out.stream.size());
  }

  // Each node's records rise strictly in (arrival, slot); merging the
  // node-major runs puts a double-driven slot's lower node first.
  merge_sorted_runs(out.stream, std::move(runs),
                    [](const SlotRecord& a, const SlotRecord& b) {
                      if (a.arrival_ps != b.arrival_ps) {
                        return a.arrival_ps < b.arrival_ps;
                      }
                      return a.slot < b.slot;
                    });

  // Collision scan: each slot occupies [arrival, arrival + period) at the
  // terminus; overlap between records from different nodes is a collision.
  for (std::size_t i = 1; i < out.stream.size(); ++i) {
    const auto& a = out.stream[i - 1];
    const auto& b = out.stream[i];
    const TimePs overlap = (a.arrival_ps + period) - b.arrival_ps;
    if (overlap > 0 && a.source != b.source) {
      out.collisions.push_back(
          Collision{a.source, b.source, a.slot, b.slot, overlap});
    } else if (overlap > 0 && a.source == b.source && a.slot == b.slot) {
      throw SimulationError("gather: node drives the same slot twice");
    }
  }
  if (strict && !out.collisions.empty()) {
    const auto& c = out.collisions.front();
    throw SimulationError(
        "gather: waveguide collision between node " +
        std::to_string(c.node_a) + " (slot " + std::to_string(c.slot_a) +
        ") and node " + std::to_string(c.node_b) + " (slot " +
        std::to_string(c.slot_b) + "), overlap " +
        std::to_string(c.overlap_ps) + " ps");
  }

  if (!out.stream.empty()) {
    out.first_arrival_ps = out.stream.front().arrival_ps;
    TimePs first_mod = out.stream.front().modulated_ps;
    for (const auto& r : out.stream) first_mod = std::min(first_mod, r.modulated_ps);
    out.span_ps = (out.stream.back().arrival_ps + period) - first_mod;

    out.gap_free = true;
    for (std::size_t i = 1; i < out.stream.size(); ++i) {
      if (out.stream[i].arrival_ps - out.stream[i - 1].arrival_ps != period) {
        out.gap_free = false;
        break;
      }
    }
    const TimePs window =
        (out.stream.back().arrival_ps - out.stream.front().arrival_ps) + period;
    out.utilization = static_cast<double>(out.stream.size()) *
                      static_cast<double>(period) / static_cast<double>(window);
  }
  return out;
}

ScatterResult ScaEngine::scatter(const CpSchedule& schedule,
                                 const std::vector<Word>& burst,
                                 bool strict) const {
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError("scatter: schedule/topology node count mismatch");
  }

  ScatterResult out;
  out.received.resize(topo_.nodes());

  // Which node listens on each slot (throws on double-claim).
  std::vector<std::int32_t> owner(burst.size(), -1);
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kListen) continue;
      for (Slot s = e.begin; s < e.end(); ++s) {
        if (s < 0 || static_cast<std::size_t>(s) >= burst.size()) {
          throw SimulationError("scatter: CP listens beyond the burst");
        }
        auto& o = owner[static_cast<std::size_t>(s)];
        if (o != -1) {
          throw SimulationError("scatter: slot " + std::to_string(s) +
                                " claimed by nodes " + std::to_string(o) +
                                " and " + std::to_string(i));
        }
        o = static_cast<std::int32_t>(i);
      }
    }
  }

  // Every listened slot is now known to lie inside the burst.
  out.deliveries.reserve(burst.size());
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    out.received[i].reserve(static_cast<std::size_t>(
        schedule.node_cps[i].slot_count(CpAction::kListen)));
  }
  const std::vector<TimePs> edge0 = node_edge0_ps(topo_, clock_);
  const TimePs period = clock_.period_ps();

  std::vector<std::size_t> next_element(topo_.nodes(), 0);
  for (std::size_t s = 0; s < burst.size(); ++s) {
    const std::int32_t node = owner[s];
    if (node < 0) {
      out.unclaimed_slots.push_back(static_cast<Slot>(s));
      continue;
    }
    const auto n = static_cast<std::size_t>(node);
    DeliveryRecord rec;
    rec.slot = static_cast<Slot>(s);
    rec.word = burst[s];
    rec.node = node;
    rec.element = static_cast<std::int64_t>(next_element[n]++);
    // The word passes the node's tap at its perceived slot time.
    rec.arrival_ps = edge0[n] + rec.slot * period;
    out.deliveries.push_back(rec);
    out.received[n].push_back(burst[s]);
  }

  if (strict && !out.unclaimed_slots.empty()) {
    throw SimulationError("scatter: " +
                          std::to_string(out.unclaimed_slots.size()) +
                          " burst slots have no listener");
  }

  if (!out.deliveries.empty()) {
    TimePs lo = out.deliveries.front().arrival_ps;
    TimePs hi = lo;
    for (const auto& d : out.deliveries) {
      lo = std::min(lo, d.arrival_ps);
      hi = std::max(hi, d.arrival_ps);
    }
    out.span_ps = (hi - lo) + clock_.period_ps();
  }
  return out;
}

ScatterResult ScaEngine::scatter_multicast(const CpSchedule& schedule,
                                           const std::vector<Word>& burst,
                                           bool strict) const {
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError(
        "scatter_multicast: schedule/topology node count mismatch");
  }
  ScatterResult out;
  out.received.resize(topo_.nodes());
  std::vector<std::uint8_t> claimed(burst.size(), 0);
  const std::vector<TimePs> edge0 = node_edge0_ps(topo_, clock_);
  const TimePs period = clock_.period_ps();
  std::vector<std::size_t> runs{0};

  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    // A node latches each burst slot at most once (its entries never
    // overlap), so the reservation is bounded by the burst.
    out.received[i].reserve(std::min(
        static_cast<std::size_t>(
            schedule.node_cps[i].slot_count(CpAction::kListen)),
        burst.size()));
    std::int64_t element = 0;
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kListen) continue;
      for (Slot s = e.begin; s < e.end(); ++s, ++element) {
        if (s < 0 || static_cast<std::size_t>(s) >= burst.size()) {
          throw SimulationError("scatter_multicast: CP beyond the burst");
        }
        claimed[static_cast<std::size_t>(s)] = 1;
        DeliveryRecord rec;
        rec.slot = s;
        rec.word = burst[static_cast<std::size_t>(s)];
        rec.node = static_cast<std::int32_t>(i);
        rec.element = element;
        rec.arrival_ps = edge0[i] + s * period;
        out.deliveries.push_back(rec);
        out.received[i].push_back(rec.word);
      }
    }
    runs.push_back(out.deliveries.size());
  }
  for (std::size_t s = 0; s < burst.size(); ++s) {
    if (!claimed[s]) out.unclaimed_slots.push_back(static_cast<Slot>(s));
  }
  if (strict && !out.unclaimed_slots.empty()) {
    throw SimulationError("scatter_multicast: " +
                          std::to_string(out.unclaimed_slots.size()) +
                          " burst slots have no listener");
  }
  // Node-major runs, each ascending in slot: the merge orders by (slot,
  // node) because equal slots keep their node order.
  merge_sorted_runs(out.deliveries, std::move(runs),
                    [](const DeliveryRecord& a, const DeliveryRecord& b) {
                      return a.slot < b.slot;
                    });
  if (!out.deliveries.empty()) {
    TimePs lo = out.deliveries.front().arrival_ps;
    TimePs hi = lo;
    for (const auto& d : out.deliveries) {
      lo = std::min(lo, d.arrival_ps);
      hi = std::max(hi, d.arrival_ps);
    }
    out.span_ps = (hi - lo) + clock_.period_ps();
  }
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
