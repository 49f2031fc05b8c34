// Space-time tracing of waveguide transactions: what energy passes a given
// waveguide position, and when. This is the library form of the paper's
// Fig. 4 timing diagram — used by the sca_timing example, exportable as
// CSV, and handy when debugging a schedule that the collision checker
// rejected.
//
// Also home to the JSON render of a machine run report, so runs under
// fault injection are observable (phase timings, fault/retry/lane
// counters) rather than silent.
#pragma once

#include <string>
#include <vector>

#include "psync/core/mesh_machine.hpp"
#include "psync/core/psync_machine.hpp"
#include "psync/core/sca.hpp"

namespace psync::core {

struct TraceSample {
  Slot slot = 0;
  std::int32_t source = -1;
  Word word = 0;
  TimePs at_ps = 0;  // leading edge passing the probe
};

struct WaveTrace {
  /// Probe positions along the waveguide, micrometres.
  std::vector<double> probes_um;
  /// Samples per probe, sorted by time. Energy that never reaches a probe
  /// (modulated downstream of it) is absent from that probe's list.
  std::vector<std::vector<TraceSample>> at_probe;
  /// Slot period of the traced transaction.
  TimePs period_ps = 0;
};

/// Trace a finished gather at the given probe positions.
WaveTrace trace_gather(const ScaEngine& engine, const GatherResult& gather,
                       const std::vector<double>& probes_um);

/// Render as an ASCII space-time diagram: one row per probe, one column per
/// slot period, each cell naming the slot whose energy passes ('..' where
/// the waveguide is dark). `labels` (optional) names the rows.
std::string render_ascii(const WaveTrace& trace,
                         const std::vector<std::string>& labels = {});

/// Dump as CSV text: probe_um,slot,source,time_ps per line.
std::string to_csv(const WaveTrace& trace);

/// JSON objects for the reliability observables.
std::string to_json(const reliability::FaultReport& rep);
std::string to_json(const reliability::RetryReport& rep);
std::string to_json(const reliability::LaneReport& rep);

/// Version stamp carried by every serialized run report so downstream
/// tooling can detect layout changes. History:
///   1 — PsyncRunReport-only JSON, no version field (pre-driver).
///   2 — unified schema: "schema_version" + "machine" discriminator, one
///       field layout for both the P-sync and mesh machines, CSV form.
///   3 — campaign layer: sweep JSON gains a "campaign" counts object and
///       per-point "status" (+ "failure" when a point was isolated);
///       machine-run report layout unchanged.
inline constexpr int kRunReportSchemaVersion = 3;

/// The normalized run summary both machine reports lower into: one field
/// set, one serializer, so every tool emits the same schema. PSCAN-side
/// observables (SCA accounting, reliability counters) are flagged by
/// `has_sca`/`has_reliability` and serialized as null-ish defaults for the
/// mesh machine.
struct RunSummary {
  std::string machine;  // "psync" | "mesh"
  std::vector<Phase> phases;
  double total_ns = 0.0;
  double reorg_ns = 0.0;
  std::uint64_t flops = 0;
  double gflops = 0.0;
  double compute_efficiency = 0.0;
  double max_error_vs_reference = 0.0;
  double comm_energy_pj = 0.0;
  double compute_energy_pj = 0.0;

  bool has_sca = false;
  bool sca_gap_free = false;
  std::uint64_t sca_collisions = 0;

  bool has_reliability = false;
  reliability::FaultReport fault;
  reliability::RetryReport retry;
  reliability::LaneReport lanes;
  double reliability_overhead_ns = 0.0;
  std::uint64_t reliability_overhead_slots = 0;
};

RunSummary summarize(const PsyncRunReport& rep);
RunSummary summarize(const MeshRunReport& rep);

/// The single serializer behind every run-report dump: JSON object with
/// "schema_version" first.
std::string run_summary_json(const RunSummary& s);

/// Full machine-run report as JSON (schema v2): phases, throughput/
/// efficiency/energy metrics, and — on the P-sync side — the SCA and
/// fault/retry/lane counters. Both overloads share one serializer.
std::string run_report_json(const PsyncRunReport& rep);
std::string run_report_json(const MeshRunReport& rep);

}  // namespace psync::core
