// Sweep results and their renderers. Every experiment runs through
// Session::run (session.hpp):
//
//   ExperimentSpec  ->  Session::run  ->  Workload registry dispatch
//                         |                    (one RunRecord per point)
//                         +--> SweepEngine (thread pool, deterministic
//                              seeding, order-preserving collection)
//
// Rendering helpers turn a SweepResult into the three formats the tools
// and benches share: an ASCII table, a JSON document (points serialized
// through the unified core/trace run-report schema), and CSV.
#pragma once

#include <string>

#include "psync/driver/campaign.hpp"
#include "psync/driver/experiment.hpp"
#include "psync/driver/sweep.hpp"
#include "psync/driver/workload.hpp"

namespace psync::driver {

struct SweepResult {
  ExperimentSpec spec;
  /// One record per grid point, in grid order (independent of threads).
  std::vector<RunRecord> records;
  /// Campaign accounting: ok/failed/quarantined/retried/resumed tallies.
  CampaignReport campaign;
};

/// ASCII table over the sweep grid: knob columns then metric columns.
std::string sweep_table(const SweepResult& result, const std::string& title);

/// JSON: {"schema_version":..,"workload":..,"points":[{knobs, metrics,
/// report?, mesh_report?}, ...]} — reports via core::run_summary_json.
std::string sweep_json(const SweepResult& result);

/// One record of sweep_json's "points" array as a standalone JSON object,
/// byte-identical to its embedded form. The serve daemon streams these to
/// subscribers as points complete.
std::string point_json(const RunRecord& rec);

/// CSV: knob columns + metric columns, one row per point.
std::string sweep_csv(const SweepResult& result);

}  // namespace psync::driver
