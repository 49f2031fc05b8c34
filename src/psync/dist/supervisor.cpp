#include "psync/dist/supervisor.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "psync/common/cancel.hpp"
#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/dist/backoff.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/dist/merge.hpp"
#include "psync/dist/transport.hpp"
#include "psync/driver/campaign.hpp"
#include "psync/driver/sweep.hpp"

namespace psync::dist {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point after_ms(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// After a worker's connection reaches EOF the leader polls fast for this
/// long, so an exiting worker is reaped as soon as waitpid can see it
/// (fds close before the zombie becomes waitable). Bounded so a worker
/// that dropped its connection but lives on — a partition — goes back to
/// the normal cadence.
constexpr double kExitReapWindowMs = 50.0;

/// A connection that sent HELLO gets this long from accept() to do so
/// before the leader drops it (a dialer that never identifies itself is
/// noise, not a worker).
constexpr double kHelloGraceMs = 2000.0;

/// Launches an assignment gets after its first before it is abandoned and
/// its unfinished points are reported as kFailed/worker_crash.
constexpr std::size_t kMaxRestarts = 5;

/// Seed of the restart jitter, mixed with the seat index so seats never
/// share a schedule. Fixed, so runs are reproducible.
constexpr std::uint64_t kBackoffSeed = 0x9E3779B97F4A7C15ULL;

/// SweepEngine threads inside each worker. Must stay 1: ascending
/// single-thread execution keeps a shard's unfinished remainder a
/// contiguous suffix and makes the heartbeat's in-flight index exact,
/// which remaining_estimate() and stealing rely on.
constexpr std::size_t kWorkerThreads = 1;

/// Best-effort frame write on a (possibly nonblocking) connection fd.
/// Small control frames normally land in the socket buffer whole; a full
/// buffer gets one short POLLOUT wait per chunk. Returns false on a hard
/// error — the caller treats the connection as dropped.
bool send_frame_fd(int fd, const Frame& frame) {
  const std::string wire = encode_frame(frame);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 100) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

/// Leader-side journal ownership for one assignment: the writer holding
/// the shard journal's flock, plus the grid indices the file holds — which
/// make retransmitted journal frames append-once, and tell a relaunch or a
/// steal what is left. Every line of the file was either read in at attach
/// or appended through here. Shared because a steal re-partition hands
/// chunk 0 the same journal file.
struct LeaderJournal {
  JournalWriter writer;
  std::set<std::size_t> recorded;
};

/// One unit of schedulable work: a contiguous grid range bound to its own
/// checkpoint journal. Assignments outlive the workers that execute them —
/// a crashed worker's assignment is relaunched, a straggler's is split.
struct Assignment {
  std::size_t shard = 0;        // original shard id (journal naming)
  ShardRange range;
  std::string journal;
  std::size_t launches = 0;     // processes started for this assignment
  std::shared_ptr<LeaderJournal> led;  // opened on first launch
};

enum class SeatState {
  kIdle,     // no assignment; may pull from the queue or steal
  kRunning,  // child executing
  kBackoff,  // child crashed; relaunch at backoff_until
  kTerming,  // SIGTERM sent (steal reclaim or shutdown); awaiting exit
};

/// A worker process seat. Seats are fixed (opts.workers of them);
/// assignments flow through them.
struct Seat {
  SeatState state = SeatState::kIdle;
  Assignment asg;
  pid_t pid = -1;
  int conn_fd = -1;  // attached worker connection
  FrameDecoder decoder;
  /// When the connection last reached EOF this launch; cleared by launch
  /// and by a re-attach. Drives the fast reap tick, not liveness.
  std::optional<Clock::time_point> conn_eof;
  std::uint64_t epoch = 0;     // lease epoch of the current launch
  bool connected_once = false; // a handshake landed this launch
  Clock::time_point last_beat{};
  Clock::time_point backoff_until{};
  Clock::time_point term_deadline{};
  std::int64_t inflight = -1;      // grid index last reported in flight
  std::uint64_t reported_done = 0; // points finished this launch (heartbeat)
  bool wedge_killed = false;  // liveness SIGKILL sent; incident recorded
  bool lost = false;          // connection-loss incident recorded
  bool stealing = false;      // kTerming is a steal reclaim, not shutdown
  std::optional<DecorrelatedBackoff> restart_backoff;
};

/// An accepted connection that has not yet claimed a (shard, epoch).
struct PendingConn {
  int fd = -1;
  FrameDecoder decoder;
  Clock::time_point deadline{};
};

class Supervisor {
 public:
  Supervisor(const driver::ExperimentSpec& spec, const SupervisorOptions& opts,
             const LaunchHook& hook)
      : spec_(spec),
        opts_(opts),
        hook_(hook),
        points_(driver::SweepEngine::expand(spec)),
        merger_(points_.size()) {
    if (opts_.journal_base.empty()) {
      throw ConfigError(
          "distributed sweep requires a journal base path (the shard "
          "journals are the crash-safety mechanism, not an option)");
    }
    if (opts_.workers == 0) opts_.workers = 1;
    worker_spec_ = spec;
    worker_spec_.threads = kWorkerThreads;
    worker_spec_.journal_path.clear();
    worker_spec_.cancel = nullptr;     // workers install their own token
    worker_spec_.observer = nullptr;   // workers attach their own emitter
    worker_spec_.quarantine_indices.clear();
    worker_spec_.shard_begin = 0;
    worker_spec_.shard_end = static_cast<std::size_t>(-1);
  }

  ~Supervisor() { teardown(); }

  driver::SweepResult run() {
    listen_fd_ = tcp_listen(opts_.listen_host, opts_.listen_port,
                            &listen_port_);
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

    while (work_remains()) {
      const auto now = Clock::now();
      check_cancel(now);
      schedule(now);
      wait_for_events(now);
      reap();
      enforce_deadlines(Clock::now());
    }
    teardown();
    if (shutdown_) {
      throw CancelledError(
          "distributed sweep cancelled; shard journal tails are durable");
    }
    return assemble();
  }

 private:
  bool work_remains() const {
    if (!queue_.empty() && !shutdown_) return true;
    for (const auto& seat : seats_) {
      if (seat.state != SeatState::kIdle) return true;
    }
    return false;
  }

  /// Close every leader-side fd and dispose of orphaned worker processes.
  /// Idempotent; runs both on the normal exit path and from the
  /// destructor (an exception mid-loop must not leak fds or children).
  void teardown() {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& pc : pending_) {
      if (pc.fd >= 0) ::close(pc.fd);
    }
    pending_.clear();
    for (auto& seat : seats_) {
      if (seat.conn_fd >= 0) {
        ::close(seat.conn_fd);
        seat.conn_fd = -1;
      }
      if (seat.pid > 0) orphans_.push_back(seat.pid);
      seat.pid = -1;
    }
    // Orphans are partitioned workers the loop deliberately left alive so
    // fencing could turn them away, plus — when an exception ended the
    // loop — workers still running. The run is over: nobody will answer
    // their reconnects, so end them.
    for (const pid_t pid : orphans_) {
      ::kill(pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
    }
    orphans_.clear();
  }

  // --- cancellation ----------------------------------------------------

  void check_cancel(Clock::time_point now) {
    if (shutdown_) return;
    if (spec_.cancel == nullptr || !spec_.cancel->cancelled()) return;
    shutdown_ = true;
    queue_.clear();
    for (auto& seat : seats_) {
      switch (seat.state) {
        case SeatState::kRunning:
          if (seat.pid > 0) ::kill(seat.pid, SIGTERM);
          seat.state = SeatState::kTerming;
          seat.stealing = false;
          seat.term_deadline = after_ms(now, opts_.term_grace_ms);
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

  // --- scheduling ------------------------------------------------------

  void schedule(Clock::time_point now) {
    if (shutdown_) return;
    for (auto& seat : seats_) {
      if (seat.state == SeatState::kBackoff && now >= seat.backoff_until) {
        launch(seat);
      }
    }
    for (auto& seat : seats_) {
      if (queue_.empty()) break;
      if (seat.state != SeatState::kIdle) continue;
      seat.asg = std::move(queue_.front());
      queue_.pop_front();
      seat.restart_backoff->reset();
      launch(seat);
    }
    maybe_steal(now);
  }

  void maybe_steal(Clock::time_point now) {
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
    Seat* victim = nullptr;
    std::size_t victim_remaining = 0;
    for (auto& seat : seats_) {
      if (seat.state != SeatState::kRunning) continue;
      const std::size_t remaining = remaining_estimate(seat);
      if (remaining >= opts_.min_steal_points && remaining > victim_remaining) {
        victim = &seat;
        victim_remaining = remaining;
      }
    }
    if (victim == nullptr) return;
    ::kill(victim->pid, SIGTERM);
    victim->state = SeatState::kTerming;
    victim->stealing = true;
    victim->term_deadline = after_ms(now, opts_.term_grace_ms);
  }

  /// How many points a running seat still has, from heartbeat state. With
  /// ascending single-thread execution the in-flight index is exact even
  /// across a resume; the per-launch done count is the fallback before the
  /// first point starts.
  std::size_t remaining_estimate(const Seat& seat) const {
    const auto idx = seat.inflight;
    if (idx >= 0 && seat.asg.range.contains(static_cast<std::size_t>(idx))) {
      return seat.asg.range.end - static_cast<std::size_t>(idx);
    }
    const auto done = static_cast<std::size_t>(seat.reported_done);
    return seat.asg.range.size() - std::min(seat.asg.range.size(), done);
  }

  // --- process lifecycle -----------------------------------------------

  void launch(Seat& seat) {
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
    while (cfg.range.begin < cfg.range.end &&
           done(seat.asg, cfg.range.begin)) {
      ++cfg.range.begin;
    }
    while (cfg.range.begin < cfg.range.end &&
           done(seat.asg, cfg.range.end - 1)) {
      --cfg.range.end;
    }
    if (cfg.range.begin >= cfg.range.end) {
      // The previous worker recorded everything before dying — the
      // assignment is already complete, nothing to launch.
      seat.state = SeatState::kIdle;
      seat.restart_backoff->reset();
      return;
    }
    cfg.connect_host = opts_.advertise_host.empty() ? opts_.listen_host
                                                    : opts_.advertise_host;
    cfg.connect_port = listen_port_;
    cfg.epoch = ledger_.issue(seat.asg.shard);
    if (hook_) hook_(cfg);

    const pid_t pid = ::fork();
    if (pid < 0) {
      const std::string err = std::strerror(errno);
      ledger_.revoke(cfg.epoch);
      throw SimulationError("distributed sweep: fork(2) failed: " + err);
    }
    if (pid == 0) {
      // Child: drop every leader-side fd — the listener and the attached
      // and pending connections.
      ::close(listen_fd_);
      for (const auto& pc : pending_) {
        if (pc.fd >= 0) ::close(pc.fd);
      }
      for (const auto& other : seats_) {
        if (other.conn_fd >= 0) ::close(other.conn_fd);
      }
      ::_exit(run_worker(worker_spec_, cfg));
    }

    seat.pid = pid;
    seat.conn_fd = -1;
    seat.decoder.reset();
    seat.conn_eof.reset();
    seat.epoch = cfg.epoch;
    seat.connected_once = false;
    seat.state = SeatState::kRunning;
    seat.last_beat = Clock::now();
    seat.inflight = -1;
    seat.reported_done = 0;
    seat.wedge_killed = false;
    seat.lost = false;
    seat.stealing = false;
    ++seat.asg.launches;
  }

  /// Open the leader's writer on an assignment's journal and replay its
  /// existing records, each admitted against this sweep, into the
  /// recorded set and the merger (so a shipped record that disagrees with
  /// one already on disk is a conflict). A journal left by another sweep
  /// fails the run here, with a JournalConflictError, before any point of
  /// it is trusted. Each journal is attached once (a repartition's chunk 0
  /// shares its predecessor's), so every index read here was journaled by
  /// an earlier run: it counts as resumed.
  void attach_leader_journal(Assignment& asg) {
    asg.led = std::make_shared<LeaderJournal>();
    for (auto& entry :
         driver::read_sweep_journal(asg.journal, points_, spec_.workload)) {
      asg.led->recorded.insert(entry.rec.index);
      resumed_.insert(entry.rec.index);
      merger_.offer(std::move(entry.rec));
    }
    asg.led->writer.open(asg.journal, /*keep_existing=*/true);
  }

  /// An earlier run on this base may have split its shards by stealing.
  /// Admit each shard's `.steal<k>` journals, k = 1, 2, ... up to the first
  /// missing one, as attach_leader_journal admits a shard journal: their
  /// points count as resumed, the final merge reads them, and this run's
  /// steals are numbered after them.
  void admit_steal_journals() {
    for (std::size_t s = 0; s < next_shard_id_; ++s) {
      for (std::size_t k = 1;; ++k) {
        std::string path = shard_journal_path(opts_.journal_base, s, k);
        if (!std::ifstream(path)) break;
        for (auto& entry :
             driver::read_sweep_journal(path, points_, spec_.workload)) {
          resumed_.insert(entry.rec.index);
          merger_.offer(std::move(entry.rec));
        }
        journal_paths_.push_back(std::move(path));
        steal_counter_[s] = k;
      }
    }
  }

  /// Grid index i has a journaled record: in the assignment's own journal
  /// or in one an earlier run left.
  bool done(const Assignment& asg, std::size_t i) const {
    return asg.led->recorded.count(i) != 0 || resumed_.count(i) != 0;
  }

  void wait_for_events(Clock::time_point now) {
    enum class Ref { kListen, kPending, kConn };
    std::vector<pollfd> fds;
    std::vector<std::pair<Ref, std::size_t>> owner;
    fds.push_back({listen_fd_, POLLIN, 0});
    owner.emplace_back(Ref::kListen, 0);
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      fds.push_back({pending_[p].fd, POLLIN, 0});
      owner.emplace_back(Ref::kPending, p);
    }
    for (std::size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s].conn_fd >= 0) {
        fds.push_back({seats_[s].conn_fd, POLLIN, 0});
        owner.emplace_back(Ref::kConn, s);
      }
    }
    const int timeout = poll_timeout_ms(now);
    const int n =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
    if (n <= 0) return;  // timeout or EINTR: deadlines handled by caller
    bool accepted = false;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      switch (owner[i].first) {
        case Ref::kListen:
          accepted = true;  // accept after the loop: pending_ may grow
          break;
        case Ref::kPending:
          service_pending(pending_[owner[i].second]);
          break;
        case Ref::kConn:
          // The seat may have been re-attached (its old fd closed) by an
          // earlier service_pending this round; match by fd to be safe.
          if (seats_[owner[i].second].conn_fd == fds[i].fd) {
            drain_socket(seats_[owner[i].second]);
          }
          break;
      }
    }
    // Drop pending slots that attached (fd moved to a seat) or closed.
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [](const PendingConn& pc) {
                                    return pc.fd < 0;
                                  }),
                   pending_.end());
    if (accepted) accept_connections();
  }

  void accept_connections() {
    for (;;) {
      // EAGAIN drained the backlog; anything else (ECONNABORTED, EMFILE,
      // ...) is transient from the leader's point of view — the worker
      // retries with backoff, so just move on.
      const int fd = tcp_accept(listen_fd_);
      if (fd < 0) break;
      PendingConn pc;
      pc.fd = fd;
      pc.deadline = after_ms(Clock::now(), kHelloGraceMs);
      pending_.push_back(std::move(pc));
    }
  }

  /// Read a not-yet-identified connection. A valid HELLO attaches the
  /// connection (and its decoder, which may already hold trailing frames)
  /// to the claimed seat; anything else — a revoked epoch, a non-HELLO
  /// first frame, framing garbage — closes it.
  void service_pending(PendingConn& pc) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(pc.fd, buf, sizeof(buf));
      if (n > 0) {
        pc.decoder.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      ::close(pc.fd);  // EOF or error before HELLO: not a worker
      pc.fd = -1;
      return;
    }
    Frame frame;
    const auto r = pc.decoder.next(&frame);
    if (r == FrameDecoder::Result::kNeedMore) return;
    if (r == FrameDecoder::Result::kCorrupt ||
        frame.kind != FrameKind::kHello) {
      ::close(pc.fd);
      pc.fd = -1;
      return;
    }
    HelloClaim claim;
    if (!parse_hello_payload(frame.payload, &claim)) {
      ::close(pc.fd);
      pc.fd = -1;
      return;
    }
    Seat* seat = seat_by_epoch(claim.epoch);
    if (seat == nullptr || !ledger_.valid(claim.epoch) ||
        ledger_.shard_of(claim.epoch) != claim.shard) {
      // Fence: this launch's lease was revoked (its shard was given away
      // while the worker was partitioned, or its exit was already
      // handled). The zombie is told so and refused — it can never write
      // a record into a shard someone else now owns.
      ++fenced_;
      (void)send_frame_fd(
          pc.fd, Frame{FrameKind::kHelloAck,
                       std::string("fenced stale epoch ") +
                           std::to_string(claim.epoch)});
      ::close(pc.fd);
      pc.fd = -1;
      return;
    }
    if (!send_frame_fd(pc.fd, Frame{FrameKind::kHelloAck, kHelloAckOk})) {
      ::close(pc.fd);
      pc.fd = -1;
      return;
    }
    if (seat->conn_fd >= 0) ::close(seat->conn_fd);
    seat->conn_fd = pc.fd;
    seat->conn_eof.reset();
    seat->decoder = std::move(pc.decoder);  // trailing frames come along
    pc.fd = -1;
    pc.decoder.reset();
    if (seat->connected_once) ++reconnects_;
    seat->connected_once = true;
    seat->last_beat = Clock::now();
    process_frames(*seat);
  }

  Seat* seat_by_epoch(std::uint64_t epoch) {
    if (epoch == 0) return nullptr;
    for (auto& seat : seats_) {
      if (seat.epoch == epoch) return &seat;
    }
    return nullptr;
  }

  /// Sleep until the nearest deadline: a backoff expiry, a liveness
  /// timeout, a SIGTERM grace cutoff, or a pending handshake deadline —
  /// capped so child exits (reaped with WNOHANG) are noticed promptly
  /// even when no deadline is near.
  int poll_timeout_ms(Clock::time_point now) const {
    double next = 50.0;
    const double liveness = liveness_ms();
    for (const auto& pc : pending_) {
      next = std::min(next, ms_between(now, pc.deadline));
    }
    for (const auto& seat : seats_) {
      if (seat.pid > 0 && seat.conn_eof &&
          ms_between(*seat.conn_eof, now) < kExitReapWindowMs) {
        // Connection EOF seen but the exit not yet reaped: the process is
        // most likely mid-_exit, with nothing left to poll. Tick fast
        // until waitpid catches it instead of sleeping out the cap.
        return 2;
      }
      switch (seat.state) {
        case SeatState::kBackoff:
          next = std::min(next, ms_between(now, seat.backoff_until));
          break;
        case SeatState::kRunning:
          if (liveness > 0.0) {
            next = std::min(
                next, ms_between(now, after_ms(seat.last_beat, liveness)));
          }
          break;
        case SeatState::kTerming:
          next = std::min(next, ms_between(now, seat.term_deadline));
          break;
        case SeatState::kIdle:
          break;
      }
    }
    return std::max(5, static_cast<int>(std::ceil(next)));
  }

  double liveness_ms() const {
    if (opts_.heartbeat_ms <= 0.0) return 0.0;  // liveness disabled
    return opts_.heartbeat_ms * opts_.liveness_factor;
  }

  void drain_socket(Seat& seat) {
    char buf[4096];
    bool got_bytes = false;
    for (;;) {
      const ssize_t n = ::read(seat.conn_fd, buf, sizeof(buf));
      if (n > 0) {
        got_bytes = true;
        seat.decoder.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or error: the connection dropped. Usually the worker is
      // exiting, but it may be mid-reconnect behind a partition: liveness
      // (kConnectionLost) decides later.
      ::close(seat.conn_fd);
      seat.conn_fd = -1;
      seat.conn_eof = Clock::now();
      break;
    }
    if (got_bytes) seat.last_beat = Clock::now();
    process_frames(seat);
  }

  void process_frames(Seat& seat) {
    Frame frame;
    for (;;) {
      const auto r = seat.decoder.next(&frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kCorrupt) {
        // Framing desync is unrecoverable on a byte stream: drop the
        // connection, the worker reconnects and the codec starts clean.
        if (seat.conn_fd >= 0) {
          ::close(seat.conn_fd);
          seat.conn_fd = -1;
        }
        seat.decoder.reset();
        break;
      }
      switch (frame.kind) {
        case FrameKind::kHeartbeat: {
          Heartbeat hb;
          if (parse_heartbeat_line(frame.payload, &hb)) {
            apply_heartbeat(seat, hb);
          }
          break;
        }
        case FrameKind::kJournal:
          handle_journal_frame(seat, frame.payload);
          break;
        default:
          break;  // wrong-direction or unknown control frame: ignore
      }
    }
  }

  void apply_heartbeat(Seat& seat, const Heartbeat& hb) {
    seat.reported_done = hb.points_done;
    seat.inflight = hb.kind == Heartbeat::Kind::kPointStart ? hb.inflight
                    : hb.kind == Heartbeat::Kind::kPointDone
                        ? -1
                        : seat.inflight;
  }

  /// One shipped journal record: admitted against this sweep, appended
  /// once per journal file (fsync before the ack, so an acked record is
  /// durable), then offered to the merger — which counts a retransmission
  /// or steal overlap and throws JournalConflictError on a disagreeing
  /// one, the same policy as the end-of-run merge.
  void handle_journal_frame(Seat& seat, const std::string& payload) {
    std::size_t index = 0;
    std::string line;
    driver::JournalEntry entry;
    if (!parse_journal_payload(payload, &index, &line) ||
        !driver::parse_journal_line(line, &entry) ||
        entry.rec.index != index) {
      return;  // garbled, no ack: the worker retransmits (or dies trying)
    }
    driver::admit_journal_entry(entry, points_, spec_.workload,
                                seat.asg.journal);
    PSYNC_CHECK(seat.asg.led != nullptr);
    LeaderJournal& led = *seat.asg.led;
    if (led.recorded.insert(index).second) {
      led.writer.append(line);  // durable before the ack goes out
    }
    merger_.offer(std::move(entry.rec));
    if (seat.conn_fd >= 0) {
      (void)send_frame_fd(seat.conn_fd, Frame{FrameKind::kJournalAck,
                                              journal_ack_payload(index)});
    }
  }

  void reap() {
    // Wait on our own pids only: a host process (test binary, CLI) may have
    // children of its own, and waitpid(-1) would swallow their statuses.
    for (auto& seat : seats_) {
      if (seat.pid <= 0) continue;
      int wstatus = 0;
      const pid_t pid = ::waitpid(seat.pid, &wstatus, WNOHANG);
      if (pid == seat.pid) handle_exit(seat, wstatus);
    }
    // Orphans (partitioned workers whose shard moved on) exit on their own
    // once fencing turns them away; collect them opportunistically.
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      int wstatus = 0;
      const pid_t pid = ::waitpid(*it, &wstatus, WNOHANG);
      if (pid == *it || (pid < 0 && errno == ECHILD)) {
        it = orphans_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void enforce_deadlines(Clock::time_point now) {
    const double liveness = liveness_ms();
    for (auto& pc : pending_) {
      if (pc.fd >= 0 && now >= pc.deadline) {
        ::close(pc.fd);  // never said HELLO: not a worker
        pc.fd = -1;
      }
    }
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [](const PendingConn& pc) {
                                    return pc.fd < 0;
                                  }),
                   pending_.end());
    for (auto& seat : seats_) {
      if (seat.state != SeatState::kRunning || liveness <= 0.0 ||
          ms_between(seat.last_beat, now) <= liveness) {
        if (seat.state == SeatState::kTerming && now >= seat.term_deadline &&
            seat.pid > 0) {
          ::kill(seat.pid, SIGKILL);
          seat.term_deadline = after_ms(now, opts_.term_grace_ms);
        }
        continue;
      }
      if (seat.conn_fd < 0) {
        // Silent *and* disconnected: the worker is on the far side of a
        // partition (or its host died). Two reasons not to SIGKILL the
        // pid: it may be a launch wrapper whose real worker is remote,
        // and killing is not needed for safety — revoking the epoch is.
        // The shard relaunches; if the original ever reconnects it is
        // fenced and stands down by itself.
        record_incident(
            driver::FailureKind::kConnectionLost,
            "shard " + std::to_string(seat.asg.shard) + " worker (pid " +
                std::to_string(seat.pid) + ", epoch " +
                std::to_string(seat.epoch) + ") disconnected and silent for " +
                std::to_string(static_cast<long>(
                    ms_between(seat.last_beat, now))) +
                " ms (liveness timeout " +
                std::to_string(static_cast<long>(liveness)) +
                " ms); fencing its epoch and relaunching",
            seat.asg.launches);
        ledger_.revoke(seat.epoch);
        seat.epoch = 0;
        if (seat.pid > 0) orphans_.push_back(seat.pid);
        seat.pid = -1;
        seat.lost = true;
        schedule_relaunch(seat);
        continue;
      }
      // Wedged: the channel has been silent past the liveness timeout even
      // though the worker-side timer thread beats through long points.
      // SIGKILL is the only safe answer to a process we can't trust to
      // unwind; the journal is fsync'd line-by-line so nothing durable
      // is lost.
      record_incident(
          driver::FailureKind::kTimeout,
          "shard " + std::to_string(seat.asg.shard) + " worker (pid " +
              std::to_string(seat.pid) + ") heartbeat silent for " +
              std::to_string(
                  static_cast<long>(ms_between(seat.last_beat, now))) +
              " ms (liveness timeout " +
              std::to_string(static_cast<long>(liveness)) + " ms); killing",
          seat.asg.launches);
      seat.wedge_killed = true;
      ::kill(seat.pid, SIGKILL);
      // Exit flows through the normal reap path; stay out of kRunning so
      // the incident isn't re-recorded next tick.
      seat.state = SeatState::kTerming;
      seat.term_deadline = after_ms(now, opts_.term_grace_ms);
    }
  }

  void handle_exit(Seat& seat, int wstatus) {
    if (seat.conn_fd >= 0) {
      drain_socket(seat);  // salvage frames still in the socket buffer
      if (seat.conn_fd >= 0) {
        ::close(seat.conn_fd);
        seat.conn_fd = -1;
      }
    }
    if (seat.epoch != 0) {
      // This launch is over; any later claim of its epoch is a zombie.
      ledger_.revoke(seat.epoch);
      seat.epoch = 0;
    }
    seat.pid = -1;

    if (shutdown_) {
      seat.state = SeatState::kIdle;
      return;
    }

    const bool graceful = WIFEXITED(wstatus) &&
                          (WEXITSTATUS(wstatus) == kWorkerExitOk ||
                           WEXITSTATUS(wstatus) == kWorkerExitCancelled ||
                           WEXITSTATUS(wstatus) == kWorkerExitFenced);
    const std::vector<std::size_t> undone = undone_in(seat.asg);

    if (seat.stealing) {
      // Steal reclaim: however the victim died (graceful exit 4, or a
      // crash racing the SIGTERM), its journal says what is left; split
      // that across the idle capacity. An ungraceful end is still an
      // incident worth recording.
      if (!graceful) {
        record_incident(driver::FailureKind::kInternalError,
                        exit_description(seat, wstatus), seat.asg.launches);
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

    // Crash (or an exit-0 liar with an incomplete journal — treat the
    // same; trusting it would silently drop points).
    if (!seat.wedge_killed && !seat.lost) {
      record_incident(driver::FailureKind::kInternalError,
                      exit_description(seat, wstatus), seat.asg.launches);
    }
    note_crash_point(seat, undone);
    schedule_relaunch(seat);
  }

  /// Relaunch policy shared by crash exits and connection loss: give up
  /// after kMaxRestarts, otherwise back off with decorrelated jitter.
  void schedule_relaunch(Seat& seat) {
    if (seat.asg.launches > kMaxRestarts) {
      record_incident(
          driver::FailureKind::kWorkerCrash,
          "shard " + std::to_string(seat.asg.shard) + " abandoned after " +
              std::to_string(seat.asg.launches - 1) + " restart(s); " +
              "unfinished point(s) will be reported as failed",
          seat.asg.launches);
      gave_up_ = true;
      seat.state = SeatState::kIdle;
      return;
    }
    ++restarts_;
    seat.state = SeatState::kBackoff;
    seat.backoff_until =
        after_ms(Clock::now(), seat.restart_backoff->next_ms());
  }

  std::string exit_description(const Seat& seat, int wstatus) const {
    std::string msg = "shard " + std::to_string(seat.asg.shard) + " worker ";
    if (WIFSIGNALED(wstatus)) {
      msg += "killed by signal " + std::to_string(WTERMSIG(wstatus));
    } else if (WIFEXITED(wstatus)) {
      msg += "exited with status " + std::to_string(WEXITSTATUS(wstatus));
    } else {
      msg += "ended abnormally";
    }
    if (seat.inflight >= 0) {
      msg += " while point " + std::to_string(seat.inflight) + " was in flight";
    }
    return msg;
  }

  /// Crash-streak bookkeeping: K consecutive crashes with the same point
  /// in flight quarantine that point (the next launch journals the
  /// kQuarantined verdict instead of executing it again).
  void note_crash_point(const Seat& seat,
                        const std::vector<std::size_t>& undone) {
    if (seat.inflight < 0) return;
    const auto idx = static_cast<std::size_t>(seat.inflight);
    // Only an unfinished point can be the culprit; a crash after the
    // journal line landed is not the point's fault.
    if (!std::binary_search(undone.begin(), undone.end(), idx)) return;
    const std::size_t streak = ++crash_streak_[idx];
    if (streak >= opts_.crash_quarantine_after &&
        quarantine_.insert(idx).second) {
      record_incident(
          driver::FailureKind::kWorkerCrash,
          "point " + std::to_string(idx) + " quarantined after " +
              std::to_string(streak) + " consecutive worker crash(es)",
          streak);
    }
  }

  /// Grid indices in the assignment's window with no journaled record,
  /// ascending.
  std::vector<std::size_t> undone_in(const Assignment& asg) const {
    std::vector<std::size_t> undone;
    for (std::size_t i = asg.range.begin; i < asg.range.end; ++i) {
      if (!done(asg, i)) undone.push_back(i);
    }
    return undone;
  }

  /// Split a reclaimed range across the idle capacity. Chunk 0 keeps the
  /// original journal (resume skips everything already recorded); chunks
  /// k >= 1 get fresh `.steal<k>` journals so every file has exactly one
  /// sequence of owners.
  void repartition(Seat& seat, const std::vector<std::size_t>& undone) {
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

  void record_incident(driver::FailureKind kind, std::string message,
                       std::size_t attempts) {
    incidents_.push_back(
        driver::PointFailure{kind, std::move(message), attempts});
  }

  // --- final assembly --------------------------------------------------

  driver::SweepResult assemble() {
    // Release the leader-held journal writers (and their flocks) before
    // the merge reads the files back.
    for (auto& seat : seats_) {
      if (seat.asg.led) seat.asg.led->writer.close();
    }
    MergedJournal merged =
        merge_journals(points_, spec_.workload, journal_paths_);
    if (!merged.missing.empty() && !gave_up_) {
      throw SimulationError(
          "distributed sweep finished with " +
          std::to_string(merged.missing.size()) +
          " unrecorded point(s) but no abandoned shard — supervisor bug");
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

  driver::ExperimentSpec spec_;         // as given (result.spec)
  driver::ExperimentSpec worker_spec_;  // scrubbed copy workers overlay
  SupervisorOptions opts_;
  const LaunchHook& hook_;

  std::vector<driver::RunPoint> points_;
  std::vector<Seat> seats_;
  std::deque<Assignment> queue_;
  std::vector<std::string> journal_paths_;
  std::size_t next_shard_id_ = 0;
  std::map<std::size_t, std::size_t> steal_counter_;  // per original shard
  std::map<std::size_t, std::size_t> crash_streak_;   // per grid index
  std::set<std::size_t> quarantine_;
  std::set<std::size_t> resumed_;  // indices found in journals at attach
  std::vector<driver::PointFailure> incidents_;
  std::uint64_t restarts_ = 0;
  std::uint64_t steals_ = 0;
  bool gave_up_ = false;
  bool shutdown_ = false;

  // --- transport state -------------------------------------------------
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  EpochLedger ledger_;
  std::vector<PendingConn> pending_;
  std::vector<pid_t> orphans_;  // partitioned pids awaiting self-exit
  std::uint64_t reconnects_ = 0;
  std::uint64_t fenced_ = 0;

  // --- live merge: the dedup and conflict policy, applied as records land
  JournalMerger merger_;
};

}  // namespace

driver::SweepResult run_distributed(const driver::ExperimentSpec& spec,
                                    const SupervisorOptions& opts,
                                    const LaunchHook& hook) {
  Supervisor supervisor(spec, opts, hook);
  return supervisor.run();
}

}  // namespace psync::dist
