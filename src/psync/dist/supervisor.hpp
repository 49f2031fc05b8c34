// The sweep leader: shards one ExperimentSpec grid across worker
// *processes* and survives their deaths.
//
// Supervision model, in one paragraph: the grid is cut into contiguous
// ranges (shard.hpp), each range is an *assignment* with its own
// checkpoint journal, and `workers` process seats execute assignments.
// Every worker dials the leader over TCP (transport.hpp; loopback with an
// ephemeral port unless told otherwise) and heartbeats over that
// connection (heartbeat.hpp); a connected worker silent longer than the
// liveness timeout is wedged and gets SIGKILLed. A dead or wedged
// worker's assignment is relaunched in place with decorrelated-jitter
// backoff, past its journal's durably recorded prefix, so only the
// points that were never durably recorded re-run. A point that kills its
// worker K launches in a row is quarantined — recorded as
// kQuarantined/worker_crash — instead of being allowed to crash-loop the
// sweep. When a seat runs out of work it steals: the straggler with the
// most unfinished points is asked to stop (SIGTERM -> graceful exit), its
// unfinished suffix is re-partitioned across the idle seats, and each
// stolen chunk gets its own `.steal<k>` journal. At the end every journal
// the run produced — including those left by SIGKILLed workers — is merged
// (merge.hpp) into one grid-order SweepResult.
//
// The journal lives on the leader's side of the wire: workers stream each
// completed point's journal line over TCP, the leader appends it to the
// local per-shard journal (fsync before ack — journal remains truth), dedups
// retransmissions by grid index, and *fences* zombie workers by lease
// epoch: every launch gets a fresh epoch, the epoch is revoked when the
// leader moves on (relaunch after connection loss, steal reclaim, exit),
// and a worker reconnecting with a revoked epoch is refused before it can
// write a single record. Connection loss is its own failure class
// (kConnectionLost): a disconnected worker that stays silent past the
// liveness window is presumed partitioned — it is *not* killed (the
// process may be unreachable, not dead); its shard is relaunched and the
// fence keeps the survivor out.
//
// Determinism: per-point seeds come from the global grid index and merged
// records are journal round-trips, so the rendered JSON/CSV is
// byte-identical to a single-process serial run no matter how many workers
// died along the way. All supervision accounting (restarts, steals,
// reconnects, fences, incident list) lives in the non-serialized
// CampaignReport fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "psync/dist/transport.hpp"
#include "psync/dist/worker.hpp"
#include "psync/driver/runner.hpp"

namespace psync::dist {

struct SupervisorOptions {
  /// Worker process seats (and initial shard count). 0 is treated as 1.
  std::size_t workers = 2;

  /// Where the leader listens for its workers (port 0 = ephemeral) and
  /// the host workers are told to dial. advertise_host defaults to
  /// listen_host — set it when workers run on other machines and must
  /// dial a routable address rather than the bind address.
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  std::string advertise_host;

  /// Worker heartbeat interval; liveness timeout is
  /// heartbeat_ms * liveness_factor (a worker is presumed wedged — and
  /// SIGKILLed — after that much silence). The factor leaves room for
  /// scheduler jitter; with a 100 ms beat a worker must go a full second
  /// without any traffic before it is declared dead.
  double heartbeat_ms = 100.0;
  double liveness_factor = 10.0;

  /// Restart policy per assignment: relaunch n waits a decorrelated-
  /// jitter draw (backoff.hpp) from [restart_backoff_ms,
  /// min(restart_backoff_max_ms, 3 * previous wait)] — first relaunch
  /// waits exactly restart_backoff_ms. After a fixed restart budget
  /// (kMaxRestarts in supervisor.cpp) an assignment is abandoned and its
  /// unfinished points are reported as kFailed/worker_crash instead of
  /// looping forever.
  double restart_backoff_ms = 50.0;
  double restart_backoff_max_ms = 2000.0;

  /// Quarantine a grid point after this many consecutive worker crashes
  /// with that point in flight (the crash analogue of PointGuard's retry
  /// budget; uses the same taxonomy via kWorkerCrash).
  std::size_t crash_quarantine_after = 3;

  /// Work stealing: an idle seat may reclaim the unfinished suffix of the
  /// busiest running seat, but only when at least min_steal_points remain
  /// (smaller remainders finish faster than a SIGTERM round-trip).
  bool steal = true;
  std::size_t min_steal_points = 4;
  /// How long a SIGTERMed straggler gets to flush and exit before SIGKILL.
  double term_grace_ms = 5000.0;

  /// Shard journals are "<journal_base>.shard<i>[.steal<k>].jsonl"
  /// (shard.hpp). Required — the journals *are* the crash-safety story.
  std::string journal_base;
};

/// Leader-side hook applied to each WorkerConfig just before fork. psync_sim
/// uses it to give each shard its own chaos seed; tests also inject
/// crash_on_index / stall_on_index for specific shards and generations.
/// May be empty.
using LaunchHook = std::function<void(WorkerConfig&)>;

/// Execute `spec`'s sweep across worker processes — each a forked child
/// running run_worker on the leader's spec — and merge the shard journals
/// into one grid-order SweepResult. The leader polls `spec.cancel`
/// (psync_sim points it at its SIGTERM/SIGINT token): once it fires, the
/// leader SIGTERMs every worker, waits out the grace period, reaps, and
/// throws CancelledError with every journal tail durable. Throws
/// ConfigError for a missing journal_base, and the merge layer's typed
/// errors if a journal is corrupt or belongs to another sweep (including
/// a stale journal already at the base when the run starts).
driver::SweepResult run_distributed(const driver::ExperimentSpec& spec,
                                    const SupervisorOptions& opts,
                                    const LaunchHook& hook = {});

}  // namespace psync::dist
