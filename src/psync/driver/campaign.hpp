// The campaign layer: what turns a sweep into a crash-safe experiment
// campaign. Three pieces, all beneath Session::run:
//
//   * PointGuard — per-point isolation. Runs one grid point, converts
//     whatever it throws into a structured PointFailure (the FailureKind
//     taxonomy in workload.hpp), arms a cooperative watchdog deadline per
//     attempt (CancelToken polled at machine cycle-batch boundaries),
//     retries transient failures with linear backoff, and quarantines
//     points that exhaust their budget. One bad point no longer takes the
//     campaign down.
//
//   * Checkpoint journal codec — one JSONL line per completed point
//     (grid index, point seed, scalar metrics, raw machine-report JSON,
//     status/failure), written through common/journal.hpp's fsync-per-line
//     writer. Doubles are stored as %.17g so a parse + re-render at the
//     serializers' precision(12) reproduces the original bytes exactly:
//     kill -9 mid-sweep + --resume yields byte-identical JSON/CSV to an
//     uninterrupted run.
//
//   * CampaignReport — the failed/quarantined/retried accounting the
//     serializers surface (schema_version 3) and psync_sim's --strict
//     promotes to a nonzero exit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "psync/driver/experiment.hpp"
#include "psync/driver/workload.hpp"

namespace psync::driver {

/// File an exception under the failure taxonomy: CancelledError ->
/// timeout, ConfigError -> config_invalid, ResourceLimitError ->
/// oom_estimate_exceeded, DivergenceError (incl. cycle caps and lane
/// exhaustion) -> sim_diverged, everything else -> internal_error.
FailureKind classify_failure(const std::exception& e);

/// Only transient kinds are worth re-running: a timeout may have been host
/// scheduling noise and an internal error may be a latent race;
/// config/divergence/oom failures are deterministic in the point itself.
bool failure_is_retryable(FailureKind kind);

/// Rough peak-working-set estimate for a run point, bytes (input matrix +
/// per-processor buffers + verification reference). Used by the guard's
/// max_point_mb admission gate, which refuses obviously oversized points
/// before they run the host out of memory.
std::size_t estimate_point_bytes(const std::string& workload,
                                 const RunPoint& pt);

/// Per-point isolation wrapper (policy in GuardParams, experiment.hpp).
class PointGuard {
 public:
  explicit PointGuard(GuardParams params) : params_(params) {}

  using PointFn = std::function<RunRecord(const RunPoint&)>;

  /// Run `fn(point)` under the configured policy. With isolation off this
  /// is a plain call (exceptions propagate). With isolation on the result
  /// always comes back as a RunRecord: status kOk (with `retries` spent),
  /// kFailed (non-retryable failure), or kQuarantined (transient failure
  /// that exhausted max_retries); failed records carry the point's index
  /// and knobs plus a PointFailure, and no metrics.
  ///
  /// `external` (optional, non-owning) is a process-wide shutdown token:
  /// once it reads cancelled, the guard stops retrying and *rethrows*
  /// CancelledError instead of classifying it as a kTimeout point failure
  /// — an abandoned point must never be journaled as failed, or a resumed
  /// sweep would splice a spurious failure where the reference run has a
  /// result. The per-attempt watchdog token is parented to `external` so
  /// machines abandon at their next cycle-batch boundary.
  RunRecord run(const std::string& workload, const RunPoint& point,
                const PointFn& fn,
                const CancelToken* external = nullptr) const;

  const GuardParams& params() const { return params_; }

 private:
  GuardParams params_;
};

/// Campaign-level accounting over a finished record set.
struct CampaignReport {
  std::size_t points = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t quarantined = 0;
  /// Points reconstituted from the checkpoint journal instead of re-run.
  /// Deliberately NOT serialized: resumed output must stay byte-identical
  /// to an uninterrupted run.
  std::size_t resumed = 0;
  /// Points served by a Session's PointCache instead of re-run. NOT
  /// serialized, for the same reason as `resumed`: a cache-served
  /// resubmission must render byte-identical to the original run.
  std::size_t cache_hits = 0;
  std::uint64_t retries = 0;        // total retry attempts consumed
  std::vector<std::size_t> quarantine;  // quarantined grid indices

  /// Distributed-execution accounting (dist/supervisor.hpp), filled only
  /// by the leader. Like `resumed`, deliberately NOT serialized: a merged
  /// distributed sweep must render byte-identical to a single-process run
  /// even when workers died and were restarted along the way.
  std::uint64_t worker_restarts = 0;  // dead/wedged workers relaunched
  std::uint64_t worker_steals = 0;    // ranges re-partitioned off workers
  /// Successful worker re-handshakes after a dropped connection, and
  /// zombie reconnects refused by epoch fencing.
  std::uint64_t worker_reconnects = 0;
  std::uint64_t worker_fenced = 0;
  /// One entry per supervised worker incident, in the point-failure
  /// taxonomy: kTimeout = heartbeat liveness expired (wedged, SIGKILLed),
  /// kInternalError = crashed/abnormal exit, kWorkerCrash = a point was
  /// quarantined after K consecutive crashes, kConnectionLost = a worker
  /// vanished (no reconnect within liveness; epoch fenced).
  std::vector<PointFailure> worker_failures;

  bool all_ok() const { return failed == 0 && quarantined == 0; }
};

/// Tally a record set (resumed is left at 0; Session fills it in). The
/// optional [begin, end) window restricts the tally to a shard's slice of
/// the grid — records outside it (e.g. splice-tolerated entries from a
/// re-partitioned journal) are not this worker's to report.
CampaignReport summarize_campaign(const std::vector<RunRecord>& records,
                                  std::size_t begin = 0,
                                  std::size_t end = static_cast<std::size_t>(-1));

/// One parsed checkpoint-journal record.
struct JournalEntry {
  std::uint64_t seed = 0;  // the point's deterministic seed (resume check)
  /// Content digest of the point (point_digest(), experiment.hpp); 0 when
  /// the line predates digests. Nonzero digests let the serve layer's
  /// result cache index journal records by content, and let resume detect
  /// a journal whose parameter blocks no longer match the spec even when
  /// index/seed/workload still line up.
  std::uint64_t point_digest = 0;
  RunRecord rec;  // metrics + status + raw report fragments
};

/// Render one completed point as a single JSONL journal line (no trailing
/// newline; JournalWriter::append adds it). Doubles as %.17g, machine
/// reports embedded as raw core::run_report_json fragments. A nonzero
/// `point_digest` is recorded as a "pd" field; 0 omits it, so records
/// written before digests existed re-render byte-identically.
std::string journal_line(const RunRecord& rec, std::uint64_t seed,
                         std::uint64_t point_digest = 0);

/// Parse one journal line. Returns false (out untouched beyond partial
/// writes) on any malformed, truncated, or unknown-format input — every
/// strict prefix of a valid line fails, which is what makes torn tails
/// safe to drop.
bool parse_journal_line(const std::string& line, JournalEntry* out);

/// The one sweep-membership rule for a journaled record: throws
/// JournalConflictError unless the record's index lies inside `points`,
/// its seed is that point's seed, its workload is `workload` and — when
/// the line carries one — its point digest is that point's digest. Two
/// grids of one workload and base seed share point seeds, so the digest
/// is what tells their journals apart. `source` names the journal (or
/// shard) in the message. Serial --resume, the shard merge and every
/// leader-side journal reader admit records through this function.
void admit_journal_entry(const JournalEntry& entry,
                         const std::vector<RunPoint>& points,
                         const std::string& workload,
                         const std::string& source);

/// Every record of `lines`, the complete lines (read_journal_lines) of the
/// journal `source`, in order; an unparseable line is a
/// JournalCorruptError naming it as `source:line`. The one journal-reading
/// rule of resume, the shard merge and the serve result cache.
std::vector<JournalEntry> parse_journal(const std::vector<std::string>& lines,
                                        const std::string& source);

/// parse_journal, with each record then admitted by admit_journal_entry.
std::vector<JournalEntry> admit_sweep_journal(
    const std::vector<std::string>& lines, const std::string& source,
    const std::vector<RunPoint>& points, const std::string& workload);

}  // namespace psync::driver
