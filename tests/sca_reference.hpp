// Test oracle for the SCA engine and CommProgram::entries(): the original
// per-slot algorithm, kept beside the tests it checks.
//
// Every slot recomputes its clock edge and flight time through the
// PhotonicClock, every node's records are emitted node-major, and the
// stream/entry order comes from one global std::stable_sort — so equal keys
// keep node (or stride) order, the tie rule the engine's placement (and
// CommProgram's run merge) must reproduce. Results must match ScaEngine
// field for field, error messages included.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/core/sca.hpp"

namespace psync::core::sca_reference {

/// Expand every stride, stable-sort by begin, then check for overlap.
inline std::vector<CpEntry> entries(const CommProgram& cp) {
  std::vector<CpEntry> out;
  for (const auto& s : cp.strides()) {
    for (Slot b = 0; b < s.count; ++b) {
      out.push_back(CpEntry{s.first + b * s.stride, s.burst, s.action});
    }
  }
  std::stable_sort(
      out.begin(), out.end(),
      [](const CpEntry& a, const CpEntry& b) { return a.begin < b.begin; });
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].begin < out[i - 1].end()) {
      throw SimulationError("CommProgram: entries overlap at slot " +
                            std::to_string(out[i].begin));
    }
  }
  return out;
}

inline TimePs fault_of(const PscanTopology& topo, std::size_t i) {
  return topo.skew_error_ps.empty() ? 0 : topo.skew_error_ps[i];
}

inline GatherResult gather(const ScaEngine& engine, const CpSchedule& schedule,
                           const std::vector<std::vector<Word>>& node_data,
                           bool strict = true) {
  const PscanTopology& topo = engine.topology();
  const photonic::PhotonicClock& clock = engine.clock();
  if (schedule.nodes() != topo.nodes()) {
    throw SimulationError("gather: schedule/topology node count mismatch");
  }
  if (node_data.size() != topo.nodes()) {
    throw SimulationError("gather: node_data size mismatch");
  }

  const TimePs period = clock.period_ps();
  GatherResult out;

  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    const double x = topo.node_pos_um[i];
    const TimePs fault = fault_of(topo, i);
    std::size_t element = 0;
    for (const CpEntry& e : entries(schedule.node_cps[i])) {
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
        rec.modulated_ps = clock.perceived_edge_ps(x, s) + fault;
        rec.arrival_ps =
            rec.modulated_ps +
            (clock.flight_ps(topo.terminus_um) - clock.flight_ps(x));
        out.stream.push_back(rec);
      }
    }
    if (strict && element != node_data[i].size()) {
      throw SimulationError("gather: node " + std::to_string(i) + " has " +
                            std::to_string(node_data[i].size()) +
                            " words but CP drives " + std::to_string(element) +
                            " slots");
    }
  }

  std::stable_sort(out.stream.begin(), out.stream.end(),
                   [](const SlotRecord& a, const SlotRecord& b) {
                     if (a.arrival_ps != b.arrival_ps) {
                       return a.arrival_ps < b.arrival_ps;
                     }
                     return a.slot < b.slot;
                   });

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
    for (const auto& r : out.stream) {
      first_mod = std::min(first_mod, r.modulated_ps);
    }
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

inline void finish_span(const photonic::PhotonicClock& clock,
                        ScatterResult* out) {
  if (out->deliveries.empty()) return;
  TimePs lo = out->deliveries.front().arrival_ps;
  TimePs hi = lo;
  for (const auto& d : out->deliveries) {
    lo = std::min(lo, d.arrival_ps);
    hi = std::max(hi, d.arrival_ps);
  }
  out->span_ps = (hi - lo) + clock.period_ps();
}

inline ScatterResult scatter(const ScaEngine& engine,
                             const CpSchedule& schedule,
                             const std::vector<Word>& burst,
                             bool strict = true) {
  const PscanTopology& topo = engine.topology();
  if (schedule.nodes() != topo.nodes()) {
    throw SimulationError("scatter: schedule/topology node count mismatch");
  }
  ScatterResult out;
  out.received.resize(topo.nodes());

  std::vector<std::int32_t> owner(burst.size(), -1);
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    for (const CpEntry& e : entries(schedule.node_cps[i])) {
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

  std::vector<std::size_t> next_element(topo.nodes(), 0);
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
    rec.arrival_ps = engine.clock().perceived_edge_ps(topo.node_pos_um[n],
                                                      rec.slot) +
                     fault_of(topo, n);
    out.deliveries.push_back(rec);
    out.received[n].push_back(burst[s]);
  }
  if (strict && !out.unclaimed_slots.empty()) {
    throw SimulationError("scatter: " +
                          std::to_string(out.unclaimed_slots.size()) +
                          " burst slots have no listener");
  }
  finish_span(engine.clock(), &out);
  return out;
}

}  // namespace psync::core::sca_reference
