#include "psync/core/trace.hpp"

#include <algorithm>
#include <sstream>

#include "psync/common/check.hpp"

namespace psync::core {

WaveTrace trace_gather(const ScaEngine& engine, const GatherResult& gather,
                       const std::vector<double>& probes_um) {
  PSYNC_CHECK(!probes_um.empty());
  const auto& topo = engine.topology();
  const auto& clk = engine.clock();

  WaveTrace trace;
  trace.probes_um = probes_um;
  trace.period_ps = clk.period_ps();
  trace.at_probe.resize(probes_um.size());

  for (const auto& rec : gather.stream) {
    const double src_pos =
        topo.node_pos_um[static_cast<std::size_t>(rec.source)];
    for (std::size_t p = 0; p < probes_um.size(); ++p) {
      const double x = probes_um[p];
      if (x < src_pos) continue;  // energy never travels upstream
      TraceSample s;
      s.slot = rec.slot;
      s.source = rec.source;
      s.word = rec.word;
      s.at_ps = rec.modulated_ps + (clk.flight_ps(x) - clk.flight_ps(src_pos));
      trace.at_probe[p].push_back(s);
    }
  }
  for (auto& samples : trace.at_probe) {
    std::sort(samples.begin(), samples.end(),
              [](const TraceSample& a, const TraceSample& b) {
                return a.at_ps < b.at_ps;
              });
  }
  return trace;
}

std::string render_ascii(const WaveTrace& trace,
                         const std::vector<std::string>& labels) {
  PSYNC_CHECK(trace.period_ps > 0);
  TimePs t_min = INT64_MAX;
  TimePs t_max = INT64_MIN;
  for (const auto& samples : trace.at_probe) {
    for (const auto& s : samples) {
      t_min = std::min(t_min, s.at_ps);
      t_max = std::max(t_max, s.at_ps + trace.period_ps);
    }
  }
  std::ostringstream os;
  if (t_min > t_max) return "(empty trace)\n";
  const auto cols =
      static_cast<std::size_t>((t_max - t_min) / trace.period_ps);

  os << "time (ps)   ";
  char buf[32];
  for (std::size_t c = 0; c < cols; ++c) {
    std::snprintf(buf, sizeof(buf), "%-6lld",
                  static_cast<long long>(
                      t_min + static_cast<TimePs>(c) * trace.period_ps));
    os << buf;
  }
  os << '\n';

  for (std::size_t p = 0; p < trace.at_probe.size(); ++p) {
    std::string line(cols * 6, '.');
    for (const auto& s : trace.at_probe[p]) {
      const auto c = static_cast<std::size_t>((s.at_ps - t_min) /
                                              trace.period_ps);
      std::snprintf(buf, sizeof(buf), "s%lld", static_cast<long long>(s.slot));
      const std::string tag(buf);
      line.replace(c * 6, std::min(tag.size(), std::size_t{5}), tag, 0,
                   std::min(tag.size(), std::size_t{5}));
    }
    if (p < labels.size()) {
      std::snprintf(buf, sizeof(buf), "%-12s", labels[p].c_str());
      os << buf;
    } else {
      std::snprintf(buf, sizeof(buf), "%-12.0f", trace.probes_um[p]);
      os << buf;
    }
    os << line << '\n';
  }
  return os.str();
}

std::string to_csv(const WaveTrace& trace) {
  std::ostringstream os;
  os << "probe_um,slot,source,time_ps\n";
  for (std::size_t p = 0; p < trace.at_probe.size(); ++p) {
    for (const auto& s : trace.at_probe[p]) {
      os << trace.probes_um[p] << ',' << s.slot << ',' << s.source << ','
         << s.at_ps << '\n';
    }
  }
  return os.str();
}

std::string to_json(const reliability::FaultReport& rep) {
  std::ostringstream os;
  os << "{\"words_total\":" << rep.words_total
     << ",\"words_corrupted\":" << rep.words_corrupted
     << ",\"bits_flipped\":" << rep.bits_flipped
     << ",\"bits_silenced\":" << rep.bits_silenced << '}';
  return os.str();
}

std::string to_json(const reliability::RetryReport& rep) {
  std::ostringstream os;
  os << "{\"blocks_total\":" << rep.blocks_total
     << ",\"blocks_retried\":" << rep.blocks_retried
     << ",\"retries\":" << rep.retries
     << ",\"slots_replayed\":" << rep.slots_replayed
     << ",\"backoff_slots\":" << rep.backoff_slots
     << ",\"corrected_bits\":" << rep.corrected_bits
     << ",\"double_errors\":" << rep.double_errors
     << ",\"crc_failures\":" << rep.crc_failures
     << ",\"detected_errors\":" << rep.detected_errors
     << ",\"residual_errors\":" << rep.residual_errors << '}';
  return os.str();
}

std::string to_json(const reliability::LaneReport& rep) {
  std::ostringstream os;
  os << "{\"dead_lanes\":[";
  for (std::size_t i = 0; i < rep.dead_lanes.size(); ++i) {
    if (i > 0) os << ',';
    os << rep.dead_lanes[i];
  }
  os << "],\"spares_used\":" << rep.spares_used
     << ",\"residual_dead\":" << rep.residual_dead
     << ",\"slots_per_word\":" << rep.slots_per_word << '}';
  return os.str();
}

RunSummary summarize(const PsyncRunReport& rep) {
  RunSummary s;
  s.machine = "psync";
  s.phases = rep.phases;
  s.total_ns = rep.total_ns;
  s.reorg_ns = rep.reorg_ns;
  s.flops = rep.flops;
  s.gflops = rep.gflops;
  s.compute_efficiency = rep.compute_efficiency;
  s.max_error_vs_reference = rep.max_error_vs_reference;
  s.comm_energy_pj = rep.comm_energy_pj;
  s.compute_energy_pj = rep.compute_energy_pj;
  s.has_sca = true;
  s.sca_gap_free = rep.sca_gap_free;
  s.sca_collisions = rep.sca_collisions;
  s.has_reliability = true;
  s.fault = rep.fault;
  s.retry = rep.retry;
  s.lanes = rep.lanes;
  s.reliability_overhead_ns = rep.reliability_overhead_ns;
  s.reliability_overhead_slots = rep.reliability_overhead_slots;
  return s;
}

RunSummary summarize(const MeshRunReport& rep) {
  RunSummary s;
  s.machine = "mesh";
  s.phases = rep.phases;
  s.total_ns = rep.total_ns;
  s.reorg_ns = rep.reorg_ns;
  s.flops = rep.flops;
  s.gflops = rep.gflops;
  s.compute_efficiency = rep.compute_efficiency;
  s.max_error_vs_reference = rep.max_error_vs_reference;
  s.comm_energy_pj = rep.comm_energy_pj;
  s.compute_energy_pj = rep.compute_energy_pj;
  return s;
}

std::string run_summary_json(const RunSummary& s) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"schema_version\":" << kRunReportSchemaVersion << ",\"machine\":\""
     << s.machine << "\",\"phases\":[";
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    const auto& ph = s.phases[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << ph.name << "\",\"start_ns\":" << ph.start_ns
       << ",\"end_ns\":" << ph.end_ns << '}';
  }
  os << "],\"total_ns\":" << s.total_ns << ",\"reorg_ns\":" << s.reorg_ns
     << ",\"flops\":" << s.flops << ",\"gflops\":" << s.gflops
     << ",\"compute_efficiency\":" << s.compute_efficiency
     << ",\"max_error_vs_reference\":" << s.max_error_vs_reference
     << ",\"comm_energy_pj\":" << s.comm_energy_pj
     << ",\"compute_energy_pj\":" << s.compute_energy_pj;
  if (s.has_sca) {
    os << ",\"sca_gap_free\":" << (s.sca_gap_free ? "true" : "false")
       << ",\"sca_collisions\":" << s.sca_collisions;
  }
  if (s.has_reliability) {
    os << ",\"reliability_overhead_ns\":" << s.reliability_overhead_ns
       << ",\"reliability_overhead_slots\":" << s.reliability_overhead_slots
       << ",\"fault\":" << to_json(s.fault)
       << ",\"retry\":" << to_json(s.retry)
       << ",\"lanes\":" << to_json(s.lanes);
  }
  os << '}';
  return os.str();
}

std::string run_report_json(const PsyncRunReport& rep) {
  return run_summary_json(summarize(rep));
}

std::string run_report_json(const MeshRunReport& rep) {
  return run_summary_json(summarize(rep));
}

}  // namespace psync::core
