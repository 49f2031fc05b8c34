// Benchmark result emission and baseline comparison.
//
// bench_driver times a fixed set of simulator workloads and serializes the
// results as BENCH_psync.json. The same schema is what CI archives and what
// the baseline-compare mode reads back: `bench_driver --baseline old.json`
// re-runs the suite and fails (non-zero exit) if any benchmark regressed by
// more than the allowed percentage. Names and notes are written with the
// common JSON escaper and read back with its cursor (common/json.hpp), so
// any byte round-trips; keys this module does not know are skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psync::perf {

/// One benchmark's timing: total wall time over `iters` runs, plus an
/// optional domain-event count (simulated cycles, words, flits...) that
/// turns into an events/sec rate in the report.
struct BenchEntry {
  std::string name;
  double wall_ms = 0.0;        // total wall time across all iterations
  double min_iter_ms = 0.0;    // fastest single iteration (0 = not tracked)
  std::uint64_t iters = 1;     // timed repetitions
  std::uint64_t events = 0;    // domain events across all iterations
  std::string note;            // what the benchmark exercises
  /// Minor page faults per iteration: the process's ru_minflt delta over
  /// the timed iterations, divided by `iters`.
  double minor_faults = 0.0;

  double per_iter_ms() const {
    return iters > 0 ? wall_ms / static_cast<double>(iters) : wall_ms;
  }
  /// The comparison statistic: min-of-N when tracked (robust against
  /// scheduler noise on shared machines), mean otherwise.
  double best_iter_ms() const {
    return min_iter_ms > 0.0 ? min_iter_ms : per_iter_ms();
  }
  double events_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(events) / (wall_ms * 1e-3)
                         : 0.0;
  }
};

struct BenchReport {
  int schema_version = 1;
  bool quick = false;  // reduced-size run (CI smoke)
  std::vector<BenchEntry> entries;

  const BenchEntry* find(const std::string& name) const;
};

/// Serialize a report (stable key order, newline-terminated).
std::string bench_report_json(const BenchReport& report);

/// Parse a report previously written by bench_report_json. Throws
/// SimulationError on malformed input.
BenchReport parse_bench_report(const std::string& json);

/// One row of a baseline comparison.
struct BenchDelta {
  std::string name;
  double baseline_ms = 0.0;  // per-iteration
  double current_ms = 0.0;   // per-iteration
  double change_pct = 0.0;   // >0 means slower than baseline
  bool regressed = false;
};

struct BenchComparison {
  std::vector<BenchDelta> rows;
  std::vector<std::string> missing;  // in baseline but not re-run
  bool ok = true;                    // no row regressed

  std::string table() const;
};

/// Compare current against baseline: a benchmark regresses when its
/// per-iteration time exceeds the baseline by more than max_regress_pct
/// AND by more than kMinAbsDeltaMs (microsecond-scale entries would
/// otherwise trip the percentage gate on timer noise alone).
/// Benchmarks present on only one side are reported but never fail the
/// comparison (the suite may legitimately grow).
inline constexpr double kMinAbsDeltaMs = 0.05;
BenchComparison compare_bench_reports(const BenchReport& baseline,
                                      const BenchReport& current,
                                      double max_regress_pct);

}  // namespace psync::perf
