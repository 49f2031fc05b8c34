// ExperimentSpec: the one description every experiment in the repository
// runs from — a workload kind (dispatched through the driver's Workload
// registry), the machine/mesh parameter blocks, and zero or more sweep
// axes that the SweepEngine expands into a grid of independent run points.
//
// This is the system's front door: tools/psync_sim parses an INI file into
// a spec, bench_driver and the tests build specs in code, and all hand
// them to Session::run. Before the driver existed each of those call sites
// grew its own serial loop; now an N-point sweep is one spec with
// `threads = M`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "psync/common/cancel.hpp"
#include "psync/common/config.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/core/psync_machine.hpp"

namespace psync::driver {

/// Per-point progress callback (defined in workload.hpp, next to
/// PointStatus). The distributed execution layer implements it to stream
/// heartbeats to the leader; nullptr observers cost nothing.
class PointObserver;

/// One sweep knob and the values it takes. Multiple axes form a cartesian
/// grid (first axis slowest, row-major).
struct SweepAxis {
  std::string knob;
  std::vector<double> values;
};

/// Per-point isolation policy (see driver/campaign.hpp): when `isolate` is
/// on, each point runs under a PointGuard that converts exceptions into a
/// structured PointFailure, arms a watchdog deadline per attempt, retries
/// transient failures with backoff, and quarantines points that exhaust
/// their retries — one bad point no longer aborts the campaign.
struct GuardParams {
  /// Convert per-point exceptions into failure records instead of
  /// propagating them out of Session::run.
  bool isolate = true;
  /// Re-runs allowed for transient failures (timeout, internal_error);
  /// deterministic failures (config_invalid, sim_diverged,
  /// oom_estimate_exceeded) never retry.
  std::size_t max_retries = 1;
  /// Watchdog deadline per attempt, ms of host wall clock (0 = none).
  /// Checked cooperatively at machine cycle-batch boundaries.
  double point_timeout_ms = 0.0;
  /// Host sleep before retry attempt n is n * retry_backoff_ms.
  double retry_backoff_ms = 5.0;
  /// Refuse points whose estimated working set exceeds this many MiB
  /// before running them (0 = no limit) -> oom_estimate_exceeded.
  std::size_t max_point_mb = 0;
};

struct ExperimentSpec {
  /// Workload registry key: fft2d | fft1d | transpose | pipeline | mesh |
  /// reliability | fig11 | fig13 (see workload.hpp).
  std::string workload = "fft2d";

  /// Canonical JSON over every result-determining field of the spec — the
  /// workload, the full machine/mesh parameter blocks (all nested device,
  /// fault and reliability parameters), verify/with_mesh/transpose_elements,
  /// the input seed, the sweep axes, and the run-report schema version.
  /// Execution-policy fields (threads, guard, journal/resume, shard window,
  /// cancel/observer) are deliberately excluded: they change *how* a sweep
  /// runs, never its rendered bytes — that invariant is what makes the
  /// digest a sound result-cache key. Key order is fixed and doubles are
  /// %.17g, so equal specs always produce equal bytes.
  std::string canonical_json() const;

  core::PsyncMachineParams machine;
  core::MeshMachineParams mesh;
  /// Run the electronic-mesh comparison alongside the P-sync machine
  /// (fft2d workload only).
  bool with_mesh = false;
  /// Verify transforms against the monolithic reference (slower).
  bool verify = true;
  /// Elements per node for the transpose workload.
  std::uint32_t transpose_elements = 256;

  /// Base seed for the per-point input generators. Every run point derives
  /// its own RNG stream from (input_seed, point index), so results do not
  /// depend on which thread executes which point.
  std::uint64_t input_seed = 2026;

  /// Sweep axes; empty = a single run point.
  std::vector<SweepAxis> axes;
  /// SweepEngine pool size (1 = serial; results are identical either way).
  std::size_t threads = 1;

  /// Per-point isolation / watchdog / retry policy.
  GuardParams guard;
  /// Checkpoint journal path (empty = no journal): every finished point is
  /// appended as one fsync'd JSONL line as it completes.
  std::string journal_path;
  /// Resume: skip points already recorded in `journal_path` and splice
  /// their journaled results back into grid order, so a killed sweep plus
  /// resume renders byte-identical output to an uninterrupted run.
  bool resume = false;

  // --- Sharded / distributed execution (src/psync/dist) -----------------
  // Seeds and knobs always come from the *global* grid index, so a shard
  // worker produces exactly the records a full run would — sharding is a
  // coordination concern, never a determinism one.

  /// Execute only grid indices in [shard_begin, min(shard_end, grid size)).
  /// Defaults cover the whole grid. Resume tolerates journal entries
  /// outside the window (they are validated and spliced, not errors), so a
  /// replacement worker can take over a dead worker's journal even after
  /// its range was re-partitioned.
  std::size_t shard_begin = 0;
  std::size_t shard_end = static_cast<std::size_t>(-1);

  /// Grid indices the leader has quarantined (K consecutive worker crashes
  /// on the same point). Session records them as kQuarantined/worker_crash
  /// without executing them, and journals that verdict so a later resume
  /// or merge sees it.
  std::vector<std::size_t> quarantine_indices;

  /// Process-wide cooperative shutdown token (non-owning; may be set from
  /// a SIGTERM/SIGINT handler). Once cancelled: no new point starts, the
  /// in-flight points finish or abandon at their next cycle-batch
  /// boundary, the journal tail is already durable, and Session::run throws
  /// CancelledError instead of returning a partial result.
  const CancelToken* cancel = nullptr;

  /// Per-point progress hook (non-owning): on_point_start before a point
  /// executes, on_point_done after its record is journaled/stored.
  PointObserver* observer = nullptr;
};

/// One expanded point of the sweep grid: knob values already applied to
/// copies of the parameter blocks, plus the point's deterministic seed.
struct RunPoint {
  std::size_t index = 0;
  std::vector<std::pair<std::string, double>> knobs;

  core::PsyncMachineParams machine;
  core::MeshMachineParams mesh;
  bool with_mesh = false;
  bool verify = true;
  std::uint32_t transpose_elements = 256;
  std::uint64_t seed = 0;

  /// Content digest of this point: a stable 64-bit hash of the point's
  /// canonical JSON (workload, applied knob values, the expanded parameter
  /// blocks, seed, schema version). Two points with equal digests compute
  /// the same record byte for byte, regardless of which grid, process or
  /// host they came from — the result cache's per-point key. Filled in by
  /// SweepEngine::expand.
  std::uint64_t digest = 0;

  /// Cooperative watchdog token the PointGuard arms per attempt; workloads
  /// thread it into the machines they construct (set_cancel). nullptr when
  /// no deadline is armed.
  const CancelToken* cancel = nullptr;
};

/// Stable 64-bit FNV-1a digest of spec.canonical_json(): the result-cache
/// key for a whole campaign. Identical across processes, hosts and runs.
std::uint64_t spec_digest(const ExperimentSpec& spec);

/// Canonical JSON for one expanded run point (same field rules as
/// ExperimentSpec::canonical_json, but over the point's post-knob parameter
/// blocks and its own derived seed).
std::string point_canonical_json(const std::string& workload,
                                 const RunPoint& pt);

/// Stable 64-bit FNV-1a digest of point_canonical_json(): the result
/// cache's per-point key (RunPoint::digest).
std::uint64_t point_digest(const std::string& workload, const RunPoint& pt);

/// FNV-1a over raw bytes — the one hash both digests reduce through.
std::uint64_t fnv1a64(const std::string& bytes);

/// One psync_sim config key (and, when `knob` is set, the [sweep] knob of
/// the same name). The table of these rows, config_keys(), is the only
/// place a key is declared: spec_from_config, apply_knob, known_knobs,
/// sim_config_schema, Session::validate and docs/configuration.md derive
/// from it. Adding a key means adding a row (and a canonical.cpp field when
/// it changes results).
struct ConfigKey {
  /// The parameter blocks (all a knob may touch) and their spec.
  struct Target {
    core::PsyncMachineParams* machine;
    core::MeshMachineParams* mesh;
    ExperimentSpec* spec;  // nullptr when applying a knob
  };

  const char* section;
  const char* name;
  ConfigSchema::Type type;
  ConfigRange range;  // inclusive; also bounds the knob's values
  /// Ini text used when the key is absent; nullptr keeps the spec's value.
  const char* fallback;
  /// Writes an admitted value given as ini text (knob values too);
  /// nullptr for keys psync_sim or the legacy kind mapping read.
  void (*set)(const Target&, const std::string&);
  /// Reads the field back for Session::validate; nullptr if not numeric.
  double (*get)(const Target&);
  bool knob = false;            // also a [sweep] knob named `name`
  const char* alias = nullptr;  // a second knob name
  const char* note = nullptr;   // why the range stops where it does
};

/// Every psync_sim key, in the order spec_from_config applies them.
const std::vector<ConfigKey>& config_keys();

/// Knobs the fig11/fig13 analysis workloads read straight from a point's
/// knob list.
inline constexpr const char* kBlocksKnobAlias = "k";
inline constexpr const char* kCoresKnob = "cores";

/// The row a sweep knob name (or alias) belongs to; nullptr if unknown.
const ConfigKey* find_knob(const std::string& knob);

/// Why `key` does not admit `value` ("mesh.t_p: expected ..."), or empty.
std::string value_error(const ConfigKey& key, double value);

/// Apply one sweep knob to the parameter blocks: throws ConfigError for a
/// value outside the knob's row, returns false for an unknown knob name.
bool apply_knob(const std::string& knob, double value,
                core::PsyncMachineParams* machine,
                core::MeshMachineParams* mesh);

/// Every knob name apply_knob accepts.
std::vector<std::string> known_knobs();

/// The ConfigError for a sweep axis with no values, naming the axis.
ConfigError empty_axis_error(const std::string& knob);

/// Build a spec from a psync_sim INI config (keys: docs/configuration.md).
/// Throws ConfigError naming the key for a mistyped or out-of-range value.
/// Legacy kinds map onto the registry: `kind = sweep` becomes the fft2d
/// workload with a [experiment] vary/values axis, and
/// `kind = reliability_sweep` becomes the reliability workload with a
/// margin_db axis from margins_db. A [sweep] section declares multi-knob
/// grids: every `knob = v0 v1 ...` line is one axis.
ExperimentSpec spec_from_config(const IniConfig& cfg);

/// The full section/key schema psync_sim configs are validated against
/// (strict-mode diagnostics).
ConfigSchema sim_config_schema();

}  // namespace psync::driver
