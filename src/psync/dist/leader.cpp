#include "psync/dist/leader.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "psync/common/check.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/driver/campaign.hpp"
#include "psync/driver/sweep.hpp"

namespace psync::dist {

namespace {

/// Seed of the restart jitter, mixed with the seat index so seats never
/// share a schedule. Fixed, so runs are reproducible.
constexpr std::uint64_t kBackoffSeed = 0x9E3779B97F4A7C15ULL;

}  // namespace

// --- EpochLedger -------------------------------------------------------

std::uint64_t EpochLedger::issue(std::size_t shard) {
  const std::uint64_t epoch = next_++;
  active_[epoch] = shard;
  return epoch;
}

void EpochLedger::revoke(std::uint64_t epoch) { active_.erase(epoch); }

bool EpochLedger::valid(std::uint64_t epoch) const {
  return active_.count(epoch) != 0;
}

std::size_t EpochLedger::shard_of(std::uint64_t epoch) const {
  const auto it = active_.find(epoch);
  PSYNC_CHECK(it != active_.end());
  return it->second;
}

// --- LeaderCore --------------------------------------------------------

LeaderCore::LeaderCore(const driver::ExperimentSpec& spec,
                       const SupervisorOptions& opts, LeaderIo* io)
    : spec_(spec),
      opts_(opts),
      io_(io),
      points_(driver::SweepEngine::expand(spec)),
      merger_(points_.size()) {
  if (opts_.journal_base.empty()) {
    throw ConfigError(
        "distributed sweep requires a journal base path (the shard "
        "journals are the crash-safety mechanism, not an option)");
  }
  if (opts_.workers == 0) opts_.workers = 1;
  for (const auto& range : plan_shards(points_.size(), opts_.workers)) {
    Assignment asg;
    asg.shard = next_shard_id_++;
    asg.range = range;
    asg.journal = shard_journal_path(opts_.journal_base, asg.shard);
    journal_paths_.push_back(asg.journal);
    queue_.push_back(std::move(asg));
  }
  admit_steal_journals();
  seats_.resize(opts_.workers);
  for (std::size_t s = 0; s < seats_.size(); ++s) {
    seats_[s].restart_backoff.emplace(
        opts_.restart_backoff_ms, opts_.restart_backoff_max_ms,
        kBackoffSeed + 0x9E3779B97F4A7C15ULL * (s + 1));
  }
}

bool LeaderCore::running() const {
  if (!queue_.empty() && !shutdown_) return true;
  for (const auto& seat : seats_) {
    if (seat.state != SeatState::kIdle) return true;
  }
  return false;
}

// --- cancellation ------------------------------------------------------

void LeaderCore::cancel(double now) {
  if (shutdown_) return;
  shutdown_ = true;
  queue_.clear();
  for (auto& seat : seats_) {
    switch (seat.state) {
      case SeatState::kRunning:
        if (seat.worker) io_->terminate(*seat.worker);
        seat.state = SeatState::kTerming;
        seat.stealing = false;
        seat.term_deadline = now + opts_.term_grace_ms;
        break;
      case SeatState::kBackoff:
        seat.state = SeatState::kIdle;  // never relaunched
        break;
      case SeatState::kTerming:
        seat.stealing = false;  // the exit now just winds down
        break;
      case SeatState::kIdle:
        break;
    }
  }
}

// --- scheduling --------------------------------------------------------

void LeaderCore::schedule(double now) {
  if (shutdown_) return;
  for (auto& seat : seats_) {
    if (seat.state == SeatState::kBackoff && now >= seat.backoff_until) {
      launch(seat, now);
    }
  }
  for (auto& seat : seats_) {
    if (queue_.empty()) break;
    if (seat.state != SeatState::kIdle) continue;
    seat.asg = std::move(queue_.front());
    queue_.pop_front();
    seat.restart_backoff->reset();
    launch(seat, now);
  }
  maybe_steal(now);
}

void LeaderCore::maybe_steal(double now) {
  if (!opts_.steal || !queue_.empty()) return;
  // One reclaim in flight at a time keeps the bookkeeping linear; further
  // idle seats wait for the re-partitioned chunks to hit the queue.
  std::size_t idle = 0;
  for (const auto& seat : seats_) {
    if (seat.state == SeatState::kIdle) ++idle;
    if (seat.state == SeatState::kTerming) return;
    if (seat.state == SeatState::kBackoff) return;  // restart first
  }
  if (idle == 0) return;
  // A one-point remainder comes back as one chunk: stealing it would only
  // relaunch it, and the idle seat would steal it again, forever.
  const std::size_t min_points =
      std::max<std::size_t>(2, opts_.min_steal_points);
  Seat* victim = nullptr;
  std::size_t victim_remaining = 0;
  for (auto& seat : seats_) {
    if (seat.state != SeatState::kRunning) continue;
    const std::size_t remaining = remaining_estimate(seat);
    if (remaining >= min_points && remaining > victim_remaining) {
      victim = &seat;
      victim_remaining = remaining;
    }
  }
  if (victim == nullptr) return;
  io_->terminate(*victim->worker);
  victim->state = SeatState::kTerming;
  victim->stealing = true;
  victim->term_deadline = now + opts_.term_grace_ms;
}

/// How many points a running seat still has, from heartbeat state. With
/// ascending single-thread execution the in-flight index is exact even
/// across a resume; the per-launch done count is the fallback before the
/// first point starts.
std::size_t LeaderCore::remaining_estimate(const Seat& seat) const {
  const auto idx = seat.inflight;
  if (idx >= 0 && seat.asg.range.contains(static_cast<std::size_t>(idx))) {
    return seat.asg.range.end - static_cast<std::size_t>(idx);
  }
  const auto done = static_cast<std::size_t>(seat.reported_done);
  return seat.asg.range.size() - std::min(seat.asg.range.size(), done);
}

// --- worker lifecycle --------------------------------------------------

void LeaderCore::launch(Seat& seat, double now) {
  WorkerConfig cfg;
  cfg.shard = seat.asg.shard;
  cfg.generation = seat.asg.launches;
  cfg.range = seat.asg.range;
  cfg.quarantine.assign(quarantine_.begin(), quarantine_.end());
  cfg.heartbeat_ms = opts_.heartbeat_ms;

  // Leader-side journal ownership: open (resume) on the assignment's
  // first launch and seed the dedup map from whatever a predecessor
  // durably recorded.
  if (!seat.asg.led) attach_leader_journal(seat.asg);
  // A worker has no local journal to resume from, so the leader narrows
  // its window past the durably-done points at either end. Interior gaps
  // (a steal overlap) re-run and land as agreeing duplicates.
  while (cfg.range.begin < cfg.range.end && done(cfg.range.begin)) {
    ++cfg.range.begin;
  }
  while (cfg.range.begin < cfg.range.end && done(cfg.range.end - 1)) {
    --cfg.range.end;
  }
  if (cfg.range.begin >= cfg.range.end) {
    // The previous worker recorded everything before dying — the
    // assignment is already complete, nothing to launch.
    seat.state = SeatState::kIdle;
    seat.restart_backoff->reset();
    return;
  }
  cfg.epoch = ledger_.issue(seat.asg.shard);
  seat.epoch = cfg.epoch;
  seat.worker = io_->launch(std::move(cfg));
  seat.conn = 0;
  seat.conn_eof.reset();
  seat.connected_once = false;
  seat.state = SeatState::kRunning;
  seat.last_beat = now;
  seat.inflight = -1;
  seat.reported_done = 0;
  seat.wedge_killed = false;
  seat.lost = false;
  seat.stealing = false;
  ++seat.asg.launches;
}

/// Open the leader's writer on an assignment's journal and replay its
/// existing records, each admitted against this sweep, into the recorded
/// set and the merger (so a shipped record that disagrees with one
/// already on disk is a conflict). A journal left by another sweep fails
/// the run here, with a JournalConflictError, before any point of it is
/// trusted. Each journal is attached once (a repartition's chunk 0 shares
/// its predecessor's), so every index read here was journaled by an
/// earlier run: it counts as resumed.
void LeaderCore::attach_leader_journal(Assignment& asg) {
  asg.led = std::make_shared<LeaderJournal>();
  for (auto& entry : read_admitted(asg.journal)) {
    asg.led->recorded.insert(entry.rec.index);
    resumed_.insert(entry.rec.index);
    merger_.offer(std::move(entry.rec));
  }
  asg.led->id = io_->open_journal(asg.journal);
  open_journals_.push_back(asg.led->id);
}

/// An earlier run on this base may have split its shards by stealing.
/// Admit each shard's `.steal<k>` journals, k = 1, 2, ... up to the first
/// missing one, as attach_leader_journal admits a shard journal: their
/// points count as resumed, the final merge reads them, and this run's
/// steals are numbered after them.
void LeaderCore::admit_steal_journals() {
  for (std::size_t s = 0; s < next_shard_id_; ++s) {
    for (std::size_t k = 1;; ++k) {
      std::string path = shard_journal_path(opts_.journal_base, s, k);
      if (!io_->journal_exists(path)) break;
      for (auto& entry : read_admitted(path)) {
        resumed_.insert(entry.rec.index);
        merger_.offer(std::move(entry.rec));
      }
      journal_paths_.push_back(std::move(path));
      steal_counter_[s] = k;
    }
  }
}

/// The journal at `path`, each record admitted against this sweep.
std::vector<driver::JournalEntry> LeaderCore::read_admitted(
    const std::string& path) {
  return driver::admit_sweep_journal(io_->read_journal(path), path, points_,
                                     spec_.workload);
}

/// Grid index i has a journaled record in any journal this run reads or
/// writes: its own shard's, a sibling steal chunk's, or one an earlier run
/// left. The live merger has seen every one of them. A point done in a
/// sibling's journal must count here too: re-run inside a stolen chunk and
/// crashing there, it would otherwise be quarantined against its own
/// journaled result, a conflict that fails the run.
bool LeaderCore::done(std::size_t i) const { return merger_.has(i); }

// --- connections -------------------------------------------------------

void LeaderCore::on_frame(ConnId conn, const Frame& frame, double now) {
  Seat* seat = seat_by_conn(conn);
  if (seat == nullptr) {
    service_hello(conn, frame, now);
    return;
  }
  seat->last_beat = now;
  switch (frame.kind) {
    case FrameKind::kHeartbeat: {
      Heartbeat hb;
      if (parse_heartbeat_line(frame.payload, &hb)) apply_heartbeat(*seat, hb);
      break;
    }
    case FrameKind::kJournal:
      handle_journal_frame(*seat, frame.payload);
      break;
    default:
      break;  // wrong-direction or unknown control frame: ignore
  }
}

void LeaderCore::on_closed(ConnId conn, double now) {
  Seat* seat = seat_by_conn(conn);
  if (seat == nullptr) return;
  // The connection dropped. Usually the worker is exiting, but it may be
  // mid-reconnect behind a partition: liveness (kConnectionLost) decides
  // later.
  seat->conn = 0;
  seat->conn_eof = now;
}

/// The first frame of a connection no seat owns yet. A valid HELLO
/// attaches the connection to the claimed seat; anything else — a revoked
/// epoch, a non-HELLO first frame — closes it.
void LeaderCore::service_hello(ConnId conn, const Frame& frame, double now) {
  HelloClaim claim;
  if (frame.kind != FrameKind::kHello ||
      !parse_hello_payload(frame.payload, &claim)) {
    io_->close(conn);
    return;
  }
  Seat* seat = seat_by_epoch(claim.epoch);
  if (seat == nullptr || !ledger_.valid(claim.epoch) ||
      ledger_.shard_of(claim.epoch) != claim.shard) {
    // Fence: this launch's lease was revoked (its shard was given away
    // while the worker was partitioned, or its exit was already handled).
    // The zombie is told so and refused — it can never write a record
    // into a shard someone else now owns.
    ++fenced_;
    (void)io_->send(conn, Frame{FrameKind::kHelloAck,
                                std::string("fenced stale epoch ") +
                                    std::to_string(claim.epoch)});
    io_->close(conn);
    return;
  }
  if (!io_->send(conn, Frame{FrameKind::kHelloAck, kHelloAckOk})) {
    io_->close(conn);
    return;
  }
  if (seat->conn != 0) io_->close(seat->conn);
  seat->conn = conn;
  seat->conn_eof.reset();
  if (seat->connected_once) ++reconnects_;
  seat->connected_once = true;
  seat->last_beat = now;
}

LeaderCore::Seat* LeaderCore::seat_by_epoch(std::uint64_t epoch) {
  if (epoch == 0) return nullptr;
  for (auto& seat : seats_) {
    if (seat.epoch == epoch) return &seat;
  }
  return nullptr;
}

LeaderCore::Seat* LeaderCore::seat_by_conn(ConnId conn) {
  for (auto& seat : seats_) {
    if (seat.conn == conn) return &seat;
  }
  return nullptr;
}

void LeaderCore::apply_heartbeat(Seat& seat, const Heartbeat& hb) {
  seat.reported_done = hb.points_done;
  seat.inflight = hb.kind == Heartbeat::Kind::kPointStart ? hb.inflight
                  : hb.kind == Heartbeat::Kind::kPointDone
                      ? -1
                      : seat.inflight;
}

/// One shipped journal record: admitted against this sweep, appended once
/// per journal file (durable before the ack), then offered to the merger
/// — which counts a retransmission or steal overlap and throws
/// JournalConflictError on a disagreeing one, the same policy as the
/// end-of-run merge.
void LeaderCore::handle_journal_frame(Seat& seat, const std::string& payload) {
  std::size_t index = 0;
  std::string line;
  driver::JournalEntry entry;
  if (!parse_journal_payload(payload, &index, &line) ||
      !driver::parse_journal_line(line, &entry) || entry.rec.index != index) {
    return;  // garbled, no ack: the worker retransmits (or dies trying)
  }
  driver::admit_journal_entry(entry, points_, spec_.workload,
                              seat.asg.journal);
  PSYNC_CHECK(seat.asg.led != nullptr);
  LeaderJournal& led = *seat.asg.led;
  if (led.recorded.insert(index).second) {
    io_->append(led.id, line);  // durable before the ack goes out
  }
  merger_.offer(std::move(entry.rec));
  (void)io_->send(seat.conn,
                  Frame{FrameKind::kJournalAck, journal_ack_payload(index)});
}

// --- deadlines ---------------------------------------------------------

double LeaderCore::liveness_ms() const {
  if (opts_.heartbeat_ms <= 0.0) return 0.0;  // liveness disabled
  return opts_.heartbeat_ms * opts_.liveness_factor;
}

double LeaderCore::next_deadline_ms() const {
  double next = std::numeric_limits<double>::infinity();
  const double liveness = liveness_ms();
  for (const auto& seat : seats_) {
    switch (seat.state) {
      case SeatState::kBackoff:
        next = std::min(next, seat.backoff_until);
        break;
      case SeatState::kRunning:
        if (liveness > 0.0) next = std::min(next, seat.last_beat + liveness);
        break;
      case SeatState::kTerming:
        next = std::min(next, seat.term_deadline);
        break;
      case SeatState::kIdle:
        break;
    }
  }
  return next;
}

bool LeaderCore::exit_expected(double now) const {
  return std::any_of(seats_.begin(), seats_.end(), [&](const Seat& seat) {
    return seat.worker && seat.conn_eof &&
           now - *seat.conn_eof < kExitReapWindowMs;
  });
}

void LeaderCore::enforce_deadlines(double now) {
  const double liveness = liveness_ms();
  for (auto& seat : seats_) {
    if (seat.state != SeatState::kRunning || liveness <= 0.0 ||
        now - seat.last_beat <= liveness) {
      if (seat.state == SeatState::kTerming && now >= seat.term_deadline &&
          seat.worker) {
        io_->kill(*seat.worker);
        seat.term_deadline = now + opts_.term_grace_ms;
      }
      continue;
    }
    const auto silent_ms =
        std::to_string(static_cast<long>(now - seat.last_beat));
    if (seat.conn == 0) {
      // Silent *and* disconnected: the worker is on the far side of a
      // partition (or its host died). Two reasons not to kill it: it may
      // be a launch wrapper whose real worker is remote, and killing is
      // not needed for safety — revoking the epoch is. The shard
      // relaunches; if the original ever reconnects it is fenced and
      // stands down by itself.
      record_incident(
          driver::FailureKind::kConnectionLost,
          "shard " + std::to_string(seat.asg.shard) + " worker (pid " +
              std::to_string(*seat.worker) + ", epoch " +
              std::to_string(seat.epoch) + ") disconnected and silent for " +
              silent_ms + " ms (liveness timeout " +
              std::to_string(static_cast<long>(liveness)) +
              " ms); fencing its epoch and relaunching",
          seat.asg.launches);
      ledger_.revoke(seat.epoch);
      seat.epoch = 0;
      seat.worker.reset();
      seat.lost = true;
      schedule_relaunch(seat, now);
      continue;
    }
    // Wedged: the channel has been silent past the liveness timeout even
    // though the worker-side timer thread beats through long points.
    // Killing is the only safe answer to a process we can't trust to
    // unwind; the journal is durable line by line so nothing is lost.
    record_incident(
        driver::FailureKind::kTimeout,
        "shard " + std::to_string(seat.asg.shard) + " worker (pid " +
            std::to_string(*seat.worker) + ") heartbeat silent for " +
            silent_ms + " ms (liveness timeout " +
            std::to_string(static_cast<long>(liveness)) + " ms); killing",
        seat.asg.launches);
    seat.wedge_killed = true;
    io_->kill(*seat.worker);
    // Exit flows through on_exit; stay out of kRunning so the incident
    // isn't re-recorded next round.
    seat.state = SeatState::kTerming;
    seat.term_deadline = now + opts_.term_grace_ms;
  }
}

// --- exits -------------------------------------------------------------

void LeaderCore::on_exit(WorkerId worker, const WorkerExit& status,
                         double now) {
  const auto it =
      std::find_if(seats_.begin(), seats_.end(),
                   [&](const Seat& s) { return s.worker == worker; });
  if (it == seats_.end()) return;
  Seat& seat = *it;
  if (seat.conn != 0) {
    io_->close(seat.conn);
    seat.conn = 0;
  }
  if (seat.epoch != 0) {
    // This launch is over; any later claim of its epoch is a zombie.
    ledger_.revoke(seat.epoch);
    seat.epoch = 0;
  }
  seat.worker.reset();

  if (shutdown_) {
    seat.state = SeatState::kIdle;
    return;
  }

  const bool graceful = status.exited && (status.code == kWorkerExitOk ||
                                          status.code == kWorkerExitCancelled ||
                                          status.code == kWorkerExitFenced);
  const std::vector<std::size_t> undone = undone_in(seat.asg);

  if (seat.stealing) {
    // Steal reclaim: however the victim died (graceful exit 4, or a crash
    // racing the terminate), its journal says what is left; split that
    // across the idle capacity. An ungraceful end is still an incident
    // worth recording.
    if (!graceful) {
      record_incident(driver::FailureKind::kInternalError,
                      exit_description(seat, status), seat.asg.launches);
      note_crash_point(seat, undone);
    }
    repartition(seat, undone);
    seat.state = SeatState::kIdle;
    seat.stealing = false;
    return;
  }

  if (undone.empty()) {
    // Assignment complete. The journal, not the exit code, is the truth:
    // a worker that crashed after durably recording its last point owes
    // us nothing.
    seat.state = SeatState::kIdle;
    seat.restart_backoff->reset();
    return;
  }

  // Crash (or an exit-0 liar with an incomplete journal — treat the same;
  // trusting it would silently drop points).
  if (!seat.wedge_killed && !seat.lost) {
    record_incident(driver::FailureKind::kInternalError,
                    exit_description(seat, status), seat.asg.launches);
  }
  note_crash_point(seat, undone);
  schedule_relaunch(seat, now);
}

/// Relaunch policy shared by crash exits and connection loss: give up
/// after kMaxRestarts, otherwise back off with decorrelated jitter.
void LeaderCore::schedule_relaunch(Seat& seat, double now) {
  if (seat.asg.launches > kMaxRestarts) {
    record_incident(driver::FailureKind::kWorkerCrash,
                    "shard " + std::to_string(seat.asg.shard) +
                        " abandoned after " +
                        std::to_string(seat.asg.launches - 1) +
                        " restart(s); " +
                        "unfinished point(s) will be reported as failed",
                    seat.asg.launches);
    gave_up_ = true;
    seat.state = SeatState::kIdle;
    return;
  }
  ++restarts_;
  seat.state = SeatState::kBackoff;
  seat.backoff_until = now + seat.restart_backoff->next_ms();
}

// Runs only when a worker ends ungracefully, so it is kept with the cold
// code.
[[gnu::cold]] std::string LeaderCore::exit_description(
    const Seat& seat, const WorkerExit& status) const {
  std::string msg = "shard " + std::to_string(seat.asg.shard) + " worker ";
  if (status.exited) {
    msg += "exited with status " + std::to_string(status.code);
  } else if (status.signal != 0) {
    msg += "killed by signal " + std::to_string(status.signal);
  } else {
    msg += "ended abnormally";
  }
  if (seat.inflight >= 0) {
    msg += " while point " + std::to_string(seat.inflight) + " was in flight";
  }
  return msg;
}

/// Crash-streak bookkeeping: K consecutive crashes with the same point in
/// flight quarantine that point (the next launch journals the
/// kQuarantined verdict instead of executing it again).
void LeaderCore::note_crash_point(const Seat& seat,
                                  const std::vector<std::size_t>& undone) {
  if (seat.inflight < 0) return;
  const auto idx = static_cast<std::size_t>(seat.inflight);
  // Only an unfinished point can be the culprit; a crash after the journal
  // line landed is not the point's fault.
  if (!std::binary_search(undone.begin(), undone.end(), idx)) return;
  const std::size_t streak = ++crash_streak_[idx];
  if (streak >= opts_.crash_quarantine_after &&
      quarantine_.insert(idx).second) {
    record_incident(driver::FailureKind::kWorkerCrash,
                    "point " + std::to_string(idx) + " quarantined after " +
                        std::to_string(streak) +
                        " consecutive worker crash(es)",
                    streak);
  }
}

/// Grid indices in the assignment's window with no journaled record,
/// ascending.
std::vector<std::size_t> LeaderCore::undone_in(const Assignment& asg) const {
  std::vector<std::size_t> undone;
  for (std::size_t i = asg.range.begin; i < asg.range.end; ++i) {
    if (!done(i)) undone.push_back(i);
  }
  return undone;
}

/// Split a reclaimed range across the idle capacity. Chunk 0 keeps the
/// original journal (resume skips everything already recorded); chunks
/// k >= 1 get fresh `.steal<k>` journals so every file has exactly one
/// sequence of owners.
void LeaderCore::repartition(Seat& seat,
                             const std::vector<std::size_t>& undone) {
  if (undone.empty()) return;
  std::size_t idle = 0;
  for (const auto& other : seats_) {
    if (other.state == SeatState::kIdle) ++idle;
  }
  const ShardRange remaining{undone.front(), seat.asg.range.end};
  const auto chunks = split_range(remaining, 1 + idle);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    Assignment asg;
    asg.shard = seat.asg.shard;
    asg.range = chunks[c];
    if (c == 0) {
      asg.journal = seat.asg.journal;
      asg.launches = seat.asg.launches;
      asg.led = seat.asg.led;  // same file, same writer, same dedup map
    } else {
      const std::size_t k = ++steal_counter_[seat.asg.shard];
      asg.journal = shard_journal_path(opts_.journal_base, seat.asg.shard, k);
      journal_paths_.push_back(asg.journal);
      ++steals_;
    }
    queue_.push_back(std::move(asg));
  }
}

void LeaderCore::record_incident(driver::FailureKind kind,
                                 std::string message, std::size_t attempts) {
  incidents_.push_back(
      driver::PointFailure{kind, std::move(message), attempts});
}

// --- final assembly ----------------------------------------------------

driver::SweepResult LeaderCore::finish() {
  if (shutdown_) {
    throw CancelledError(
        "distributed sweep cancelled; shard journal tails are durable");
  }
  // Release the leader-held journal writers before the merge reads the
  // files back.
  for (const JournalId id : open_journals_) io_->close_journal(id);
  open_journals_.clear();
  MergedJournal merged = merge_journals(
      points_, spec_.workload, journal_paths_,
      [this](const std::string& path) { return io_->read_journal(path); });
  if (!merged.missing.empty() && !gave_up_) {
    throw SimulationError(
        "distributed sweep finished with " +
        std::to_string(merged.missing.size()) +
        " unrecorded point(s) but no abandoned shard — leader bug");
  }
  for (const std::size_t idx : merged.missing) {
    driver::RunRecord rec;
    rec.index = idx;
    rec.workload = spec_.workload;
    rec.knobs = points_[idx].knobs;
    rec.status = driver::PointStatus::kFailed;
    rec.failure = driver::PointFailure{
        driver::FailureKind::kWorkerCrash,
        "shard abandoned after exhausting worker restarts", 0};
    merged.records[idx] = std::move(rec);
  }
  driver::SweepResult result;
  result.spec = spec_;
  result.records = std::move(merged.records);
  result.campaign = driver::summarize_campaign(result.records);
  result.campaign.resumed = resumed_.size();
  result.campaign.worker_restarts = restarts_;
  result.campaign.worker_steals = steals_;
  result.campaign.worker_reconnects = reconnects_;
  result.campaign.worker_fenced = fenced_;
  result.campaign.worker_failures = std::move(incidents_);
  return result;
}

}  // namespace psync::dist
