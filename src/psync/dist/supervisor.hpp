// The sweep leader's entry point: shards one ExperimentSpec grid across
// worker *processes* and survives their deaths.
//
// The policy — seats, relaunch, liveness, stealing, fencing, quarantine,
// the journals and the merge — is LeaderCore (leader.hpp), which the
// supervision model is documented with. supervisor.cpp is its POSIX side:
// it listens on TCP (transport.hpp; loopback with an ephemeral port unless
// told otherwise), forks one worker per launch, reaps and signals them,
// and appends to the flock'd shard journals, fsync before the ack.
#pragma once

#include <functional>

#include "psync/dist/leader.hpp"
#include "psync/dist/transport.hpp"
#include "psync/dist/worker.hpp"
#include "psync/driver/runner.hpp"

namespace psync::dist {

/// Leader-side hook applied to each WorkerConfig just before fork. psync_sim
/// uses it to give each shard its own chaos seed; tests use it to pick the
/// shard and generation a fault lands on. May be empty.
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
