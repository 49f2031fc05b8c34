// The Workload registry: every experiment kind the repository knows how to
// run, behind one interface. A Workload turns a RunPoint (parameter blocks
// + deterministic seed) into a RunRecord (ordered scalar metrics for sweep
// tables/CSV, plus the full machine report when one ran). Workloads must be
// const and thread-safe: the SweepEngine calls run() concurrently from the
// pool, so all mutable state lives in locals, in the machines a run
// constructs for itself, or in the calling thread's core::Scratch.
//
// Built-ins: fft2d, fft1d, transpose, pipeline, mesh, reliability (machine
// workloads), and fig11 / fig13 (closed-form/LLMORE analysis points the
// bench sweeps dispatch through the same driver).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "psync/core/mesh_machine.hpp"
#include "psync/core/psync_machine.hpp"
#include "psync/core/scratch.hpp"
#include "psync/driver/experiment.hpp"

namespace psync::driver {

/// One scalar result column. `decimals` controls table rendering: >= 0 is
/// fixed precision, -1 renders scientific (%.1e) for error/BER magnitudes.
struct Metric {
  std::string name;
  double value = 0.0;
  int decimals = 2;
};

/// Failure taxonomy for isolated run points. The PointGuard
/// (driver/campaign.hpp) classifies whatever a point throws into one of
/// these buckets; only kTimeout and kInternalError are considered transient
/// and eligible for retry.
enum class FailureKind {
  kConfigInvalid,        // ConfigError: the parameter block is nonsense
  kSimDiverged,          // DivergenceError: cycle cap, lane exhaustion, ...
  kTimeout,              // CancelledError: watchdog deadline exceeded
  kOomEstimateExceeded,  // working-set estimate over guard.max_point_mb
  kInternalError,        // anything else (bug, bad_alloc, unknown throw)
  kWorkerCrash,          // a dist worker process died on/near this point
  kConnectionLost,       // a remote worker's link dropped and never came
                         // back within the liveness window (partition or
                         // remote host death — the process may live on;
                         // epoch fencing keeps its late writes out)
};

enum class PointStatus {
  kOk,
  kFailed,       // non-retryable failure, isolated
  kQuarantined,  // retryable failure that exhausted its retries
};

const char* to_string(FailureKind kind);
const char* to_string(PointStatus status);
/// Parse the to_string forms back; throws SimulationError on unknown text.
FailureKind failure_kind_from_string(const std::string& s);
PointStatus point_status_from_string(const std::string& s);

/// Per-point progress callback (declared in experiment.hpp so
/// ExperimentSpec can hold one). Called from SweepEngine pool threads under
/// the Session's journal lock, so implementations see starts and
/// completions in a consistent order but must stay cheap and re-entrant.
class PointObserver {
 public:
  virtual ~PointObserver() = default;
  /// The point at `index` is about to execute (after resume/quarantine
  /// filtering — only points that actually run are announced).
  virtual void on_point_start(std::size_t index) = 0;
  /// The point's record has been journaled (when a journal is configured)
  /// and stored.
  virtual void on_point_done(std::size_t index, PointStatus status) = 0;
};

/// What an isolated point died of (attached to its RunRecord).
struct PointFailure {
  FailureKind kind = FailureKind::kInternalError;
  std::string message;
  std::size_t attempts = 1;  // tries spent, including the first
};

/// Result of one run point, in sweep-grid order when part of a sweep.
struct RunRecord {
  std::size_t index = 0;
  std::string workload;
  std::vector<std::pair<std::string, double>> knobs;
  std::vector<Metric> metrics;

  /// Host wall time the Session spent running this point. Deliberately
  /// excluded from every serializer (tables, JSON, CSV): reports stay
  /// byte-identical run to run; `psync_sim --profile` is what surfaces it.
  double wall_ns = 0.0;

  /// Full reports when a machine actually ran (absent for analysis
  /// workloads); serialized via the unified core/trace schema.
  std::optional<core::PsyncRunReport> psync;
  std::optional<core::MeshRunReport> mesh;
  std::optional<core::PsyncMachine::PipelineReport> pipeline;
  std::optional<core::TransposeRunReport> transpose;

  /// Campaign layer (driver/campaign.hpp): how the point ended, what it
  /// died of when isolated, and how many retries it consumed.
  PointStatus status = PointStatus::kOk;
  std::optional<PointFailure> failure;
  std::size_t retries = 0;

  /// Pre-rendered machine-report JSON fragments for points reconstituted
  /// from a checkpoint journal (the typed reports above stay empty then);
  /// the serializer splices these back verbatim so a resumed sweep renders
  /// byte-identical output.
  std::string psync_json;
  std::string mesh_json;
};

/// Value of a named metric; throws SimulationError if absent.
double metric(const RunRecord& rec, const std::string& name);

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Run one point. `scratch` belongs to the calling thread (see
  /// core/scratch.hpp): the point's input and machines run out of it.
  virtual RunRecord run(const RunPoint& pt, core::Scratch& scratch) const = 0;
};

/// Register (or replace) a workload under its name(). Thread-safe.
void register_workload(std::unique_ptr<Workload> w);

/// Look up a workload; throws SimulationError naming the known kinds when
/// `name` is not registered. Built-ins are registered on first use.
const Workload& find_workload(const std::string& name);

/// All registered workload names, sorted.
std::vector<std::string> workload_names();

/// Deterministic input matrix shared by the machine workloads: `n` complex
/// samples in [-1,1)^2 from the point's seed, replacing the contents of
/// `*out` (its capacity is reused).
void random_input(std::size_t n, std::uint64_t seed,
                  std::vector<std::complex<double>>* out);

/// The same matrix in a vector of its own.
std::vector<std::complex<double>> random_input(std::size_t n,
                                               std::uint64_t seed);

}  // namespace psync::driver
