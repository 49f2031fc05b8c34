// Shard-worker execution: the body every distributed worker process runs,
// whether a leader forked it (psync_sim --workers, serve, tests, benches)
// or it was started by hand as `psync_sim --worker-shard` on another host.
//
// A worker owns one contiguous window of the sweep grid and journals
// nothing itself: it dials the leader (link.hpp) and ships each
// completed point's journal record, which the leader appends to the shard
// journal it owns. A replacement for a SIGKILLed worker is launched with
// its window narrowed past the durably recorded prefix, so only the
// points its predecessor did not finish re-run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "psync/dist/chaos.hpp"
#include "psync/dist/shard.hpp"
#include "psync/driver/experiment.hpp"

namespace psync::dist {

/// Worker exit codes the supervisor keys its state machine on. Anything
/// else — including death by signal — is a crash.
inline constexpr int kWorkerExitOk = 0;         // shard window complete
inline constexpr int kWorkerExitError = 1;      // typed failure (see stderr)
inline constexpr int kWorkerExitCancelled = 4;  // graceful SIGTERM/SIGINT
/// The leader refused this worker's lease epoch (the shard was given
/// away while this worker was partitioned). Not a crash — the
/// zombie found out it is one and stood down; its seat moved on long ago.
inline constexpr int kWorkerExitFenced = 5;

struct WorkerConfig {
  /// Shard id (stable across restarts; steal chunks get fresh ids).
  std::size_t shard = 0;
  /// Restart generation: 0 on first launch, +1 per relaunch. Informational
  /// for launchers (e.g. "inject a fault only on generation 0").
  std::size_t generation = 0;
  /// Global grid window this worker executes.
  ShardRange range;
  /// Grid indices the leader quarantined; recorded, not executed.
  std::vector<std::size_t> quarantine;
  /// Heartbeat interval (<= 0: no timer beats, only point start/done).
  double heartbeat_ms = 100.0;

  // --- link to the leader (link.hpp) ------------------------------------
  /// Leader address to dial. The worker streams each completed point's
  /// journal line to the leader (at-least-once, leader dedups).
  std::string connect_host;
  std::uint16_t connect_port = 0;
  /// Lease epoch the leader issued for exactly this launch; the HELLO
  /// fencing identity.
  std::uint64_t epoch = 0;
  /// Seeded frame-level fault injection on the worker's link (psync_sim's
  /// --chaos-* flags, as the dist smoke runs them, and tests); seed 0 =
  /// clean link.
  ChaosOptions chaos;
};

/// Run one shard worker to completion in this process. Installs
/// SIGTERM/SIGINT handlers (graceful cancel -> kWorkerExitCancelled) and
/// ignores SIGPIPE (a dropped connection is the link's to handle), so
/// call it only from a process dedicated to being a worker — a forked
/// child or a `psync_sim --worker-shard` invocation. Never throws.
///
/// `spec` is the full-sweep spec; the shard window, quarantine list,
/// cancel token and heartbeat observer are overlaid from `cfg`. The
/// worker dials `cfg.connect_host:connect_port`, streams completed points
/// to the leader, and exits kWorkerExitFenced when the leader refuses
/// this launch's epoch; an empty `connect_host` is kWorkerExitError.
int run_worker(driver::ExperimentSpec spec, const WorkerConfig& cfg);

}  // namespace psync::dist
