#include "psync/dist/worker.hpp"

#include <signal.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/dist/transport.hpp"
#include "psync/driver/campaign.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"

namespace psync::dist {

namespace {

// Process-wide shutdown token for worker processes. SIGTERM (the leader
// reclaiming a straggler's range, or an operator) and SIGINT both request
// a graceful wind-down: finish/abandon at the next cycle-batch boundary,
// flush what it finished to the leader, exit kWorkerExitCancelled. The
// link also cancels this token when the leader fences the worker's
// epoch — same wind-down, exit kWorkerExitFenced.
CancelToken g_worker_cancel;

void worker_signal_handler(int /*signo*/) { g_worker_cancel.cancel(); }

void install_worker_signals() {
  struct sigaction sa = {};
  sa.sa_handler = worker_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking syscalls too
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A dropped connection surfaces as EPIPE on a send (the link reconnects),
  // never as a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
}

/// Stream every completed point's journal line to the leader as the
/// campaign produces events. The event log is the bridge —
/// Session::execute publishes each record in completion order, so the
/// shipped stream carries exactly the lines a local JournalWriter would
/// have appended.
void ship_journal_stream(driver::CampaignHandle& handle,
                         const std::vector<driver::RunPoint>& points,
                         SocketWorkerLink* link) {
  std::size_t cursor = 0;
  std::vector<driver::CampaignEvent> events;
  for (;;) {
    events.clear();
    cursor = handle.events_since(cursor, 50.0, &events);
    for (const auto& ev : events) {
      link->send_journal(
          ev.index, driver::journal_line(ev.record, points[ev.index].seed,
                                         points[ev.index].digest));
    }
    if (handle.done() && events.empty()) break;
    if (link->fenced()) break;  // the campaign is being cancelled anyway
  }
}

/// Post-run flush: keep pumping until the leader acked every record or
/// the budget runs out. Exiting with unacked records is safe — the leader
/// treats an incomplete journal as undone work and re-runs it — this just
/// avoids that re-run in the common case of a transient disconnect.
void flush_unacked(SocketWorkerLink* link, double heartbeat_ms) {
  (void)link->flush(std::max(2000.0, 100.0 * heartbeat_ms));
}

}  // namespace

int run_worker(driver::ExperimentSpec spec, const WorkerConfig& cfg) {
  install_worker_signals();
  g_worker_cancel.reset();
  if (cfg.connect_host.empty()) {
    std::fprintf(stderr, "psync worker (shard %zu): no leader address\n",
                 cfg.shard);
    return kWorkerExitError;
  }

  std::unique_ptr<SocketWorkerLink> link;
  try {
    SocketLinkOptions lopts;
    lopts.host = cfg.connect_host;
    lopts.port = cfg.connect_port;
    lopts.shard = cfg.shard;
    lopts.epoch = cfg.epoch;
    // Jitter seed: decorrelate reconnect schedules across shards and
    // generations so one partition's survivors don't stampede back in
    // lockstep.
    lopts.reconnect_seed =
        0x9E3779B97F4A7C15ULL ^ (cfg.epoch * 0x2545F4914F6CDD1DULL + 1) ^
        (static_cast<std::uint64_t>(cfg.shard) << 32);
    lopts.chaos = cfg.chaos;
    link = std::make_unique<SocketWorkerLink>(lopts, &g_worker_cancel);

    HeartbeatEmitter emitter(link.get(), cfg.shard, cfg.heartbeat_ms);

    spec.shard_begin = cfg.range.begin;
    spec.shard_end = cfg.range.end;
    // No local journal: the leader appends shipped records to the shard
    // journal on its side of the wire. Restart resume happens by the
    // leader narrowing cfg.range to the undone suffix.
    spec.journal_path.clear();
    spec.resume = false;
    spec.quarantine_indices = cfg.quarantine;
    spec.cancel = &g_worker_cancel;
    spec.observer = &emitter;

    // Submit through the Session API and join: the serial run's execution
    // path, with the validate/freeze phase up front.
    driver::Session session;
    driver::FrozenSpec frozen = driver::Session::freeze(spec);
    const std::vector<driver::RunPoint> points = frozen.points;
    auto handle = session.submit(std::move(frozen));
    ship_journal_stream(handle, points, link.get());
    handle.wait();
    (void)handle.result();  // rethrows on failure/cancel
    flush_unacked(link.get(), cfg.heartbeat_ms);
    return kWorkerExitOk;
  } catch (const CancelledError&) {
    if (link == nullptr) return kWorkerExitCancelled;
    // A SIGTERMed straggler still owes the leader whatever it finished
    // (a steal reclaim reads the journal to split the remainder).
    flush_unacked(link.get(), cfg.heartbeat_ms);
    return link->fenced() ? kWorkerExitFenced : kWorkerExitCancelled;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psync worker (shard %zu): %s\n", cfg.shard,
                 e.what());
    return kWorkerExitError;
  }
}

}  // namespace psync::dist
