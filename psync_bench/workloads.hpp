// The five psync_bench workloads. Each one reaches the simulator only
// through public layer APIs (driver Session/render, core machines, fft,
// reliability, common journal, dist supervisor, serve daemon), so the
// benchmark measures what a caller of those layers would see.
//
// A workload is driven in two modes. Untraced passes are what the gated
// end-to-end numbers come from. Traced passes split the same work into the
// individual public calls each layer exposes and time each call as a span,
// which is where the per-layer numbers come from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace psync_bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

struct BenchOptions {
  std::uint64_t seed = 1;
  /// Directory every temp dir (journals, sockets, caches) is created under.
  std::string work_dir;
  /// Smoke mode: the smallest run that still renders the digested output.
  bool smoke = false;
};

/// What one timed pass did.
struct PassResult {
  std::size_t points = 0;     // grid points delivered
  std::size_t attempted = 0;  // operations attempted
  std::size_t failed = 0;     // failed, refused, or wrong
};

/// Everything a run measured, before it is reduced to named metrics.
struct RunData {
  std::vector<double> setup_s;      // raw wall time of each set-up
  std::vector<double> setup_cal;    // each set-up / adjacent slowdown
  std::vector<double> pass_s;       // untraced passes (or requests)
  std::vector<double> pass_cal;     // each / adjacent slowdown
  std::vector<double> cpu_cal_per_point;  // per pass: CPU s per point / slowdown
  std::vector<double> slowdowns;    // every calibration run, seen through the mix
  std::vector<double> traced_pass_s;
  double points = 0.0;              // delivered by the untraced passes
  double cpu_s = 0.0;               // user+sys incl. children, same passes
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::uint64_t digest = 0;         // rendered-output digest (see expected/)
  bool has_digest = false;
};

/// Shared services a workload's measure() uses.
struct RunContext {
  BenchOptions opts;
  double seconds = 15.0;
  bool traced = false;
  Calibrator* cal = nullptr;
  Tracer* tracer = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// CPUs the workload keeps busy: the run is pinned to that many, spins
  /// them up first when there are several, and calibrates on each.
  [[nodiscard]] virtual int cores() const { return 1; }
  /// Set-ups timed per run; setup_s reports their median.
  [[nodiscard]] virtual int setups() const { return 5; }
  /// How this workload's time tracks the calibration parts (README.md).
  [[nodiscard]] virtual CalMix cal_mix() const;

  /// Run the workload for ctx.seconds and collect its measurements. The
  /// default drives setup() then pass() repeatedly with interleaved
  /// calibration; serve_mix overrides it with an open loop.
  virtual void measure(RunContext& ctx, RunData* out);

  /// Per-layer metrics after a traced run (every name in layer_metric_names,
  /// zero for layers the workload leaves idle).
  virtual void layer_metrics(const RunContext& ctx, const RunData& data,
                             Metrics* out) = 0;

 protected:
  /// One calibration run, as this workload's slowdown (also recorded).
  double calibrate(RunContext& ctx, RunData* out) const;
  /// The timed set-ups, each between two calibrations; returns the last
  /// slowdown.
  double run_setups(RunContext& ctx, RunData* out);
  /// Time 40 record-sized JournalWriter appends as spans (traced runs).
  void probe_journal(RunContext& ctx) const;
  /// Freeze, construct and run one untimed warm pass.
  virtual void setup(const BenchOptions& opts) = 0;
  /// One timed pass; `tr` is non-null for a traced pass.
  virtual PassResult pass(Tracer* tr) = 0;
  /// Digest of the last pass's rendered output.
  [[nodiscard]] virtual std::uint64_t last_digest() const = 0;
  /// Extra checks after the last pass; appends failures to out->errors.
  virtual void finish(RunData* out) { (void)out; }
};

/// Workload names in run order.
std::vector<std::string> workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name);
std::unique_ptr<Workload> make_serve_mix();

/// Per-layer metric names and units, in report order (BENCHMARK.json).
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

/// common.journal_append_ms.p50/.p90 from the probe's spans.
void journal_metrics(const Tracer& tr, Metrics* out);

/// Fill every per-layer name missing from `m` with 0 and order `m` by
/// layer_metric_names().
void complete_layer_metrics(Metrics* m);

}  // namespace psync_bench
