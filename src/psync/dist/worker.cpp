// The POSIX side of a shard worker: signals, the TCP socket under the
// worker's link policy (WorkerLinkCore, link.hpp), and the heartbeat timer
// thread that doubles as the link's I/O pump.
#include "psync/dist/worker.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/dist/link.hpp"
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

/// The worker's end of the link: a TCP socket under WorkerLinkCore. It
/// keeps what the core cannot see — the socket, its frame decoder, the
/// clock, the blocking wait for the hello-ack right after a dial, and
/// flush()'s poll loop. Thread-safe: the heartbeat timer thread and the
/// sweep thread both call in.
class SocketWorkerLink final : public LinkIo {
 public:
  /// Dials right away (a failure just schedules a retry). `on_fenced` is
  /// cancelled when the leader refuses this epoch.
  SocketWorkerLink(const WorkerConfig& cfg, CancelToken* on_fenced)
      : host_(cfg.connect_host),
        port_(cfg.connect_port),
        core_(cfg, this, on_fenced),
        t0_(Clock::now()) {
    std::lock_guard<std::mutex> lock(mu_);
    pump_locked(now_ms());
  }
  ~SocketWorkerLink() override {
    std::lock_guard<std::mutex> lock(mu_);
    close();
  }

  /// Emit one heartbeat. Returns false once the link is permanently dead
  /// (this epoch was fenced) — the worker should wind down. Disconnected
  /// is not dead: the reconnect loop keeps trying.
  bool send_heartbeat(const Heartbeat& hb) {
    std::lock_guard<std::mutex> lock(mu_);
    const double now = now_ms();
    pump_locked(now);
    return core_.send_heartbeat(hb, now);
  }

  /// Queue one completed point's journal line and ship it.
  void send_journal(std::size_t index, const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    const double now = now_ms();
    pump_locked(now);
    core_.send_journal(index, line, now);
  }

  [[nodiscard]] bool fenced() const {
    std::lock_guard<std::mutex> lock(mu_);
    return core_.fenced();
  }

  /// Block until every queued journal record is acked or `timeout_ms`
  /// passes, pumping I/O and waking as soon as an ack arrives. True when
  /// the queue drained.
  bool flush(double timeout_ms) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(timeout_ms));
    for (;;) {
      int fd = -1;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (core_.fenced()) return false;
        if (core_.drained()) return true;
        pump_locked(now_ms());
        if (core_.drained()) return true;
        fd = fd_;
      }
      const double left_ms =
          std::chrono::duration<double, std::milli>(deadline - Clock::now())
              .count();
      if (left_ms <= 0.0) break;
      // Wake on the ack itself; the 5 ms cap keeps retransmits, reconnects
      // and chaos releases on the pump's usual cadence. A disconnected link
      // has nothing to poll and just waits out the slice.
      const int wait_ms = static_cast<int>(std::min(5.0, std::ceil(left_ms)));
      if (fd >= 0) {
        pollfd pfd{fd, POLLIN, 0};
        (void)::poll(&pfd, 1, wait_ms);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    return core_.drained();
  }

  // --- LinkIo (called by the core with mu_ held) --------------------------

  bool connect() override {
    const int fd = tcp_connect(host_, port_);
    if (fd < 0) return false;
    // Nonblocking from here on: the hello-ack wait sits in poll, then the
    // pump drains acks.
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fd_ = fd;
    decoder_.reset();
    return true;
  }

  bool send(const Frame& frame) override {
    // A full kernel buffer (tiny frames, so this is rare) is waited out:
    // blocking briefly beats dropping the frame on the floor.
    return send_frame(fd_, frame, /*keep_waiting=*/true);
  }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    decoder_.reset();
  }

 private:
  using Clock = std::chrono::steady_clock;

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }

  /// Drain acks, then let the core dial, retransmit and release chaos
  /// holds. The heartbeat timer thread calls this every interval, so the
  /// link makes progress even while the sweep thread computes one long
  /// point.
  void pump_locked(double now) {
    drain_locked(now);
    core_.pump(now);
    if (core_.handshaking()) await_hello_ack_locked();
  }

  /// Hand the core every whole frame that arrived, then the EOF if one
  /// came behind them: a leader that fences a claim closes the connection
  /// right after the fenced ack.
  void drain_locked(double now) {
    if (fd_ < 0) return;
    const bool open = read_frames(fd_, &decoder_);
    Frame frame;
    while (fd_ >= 0) {
      const FrameDecoder::Result r = decoder_.next(&frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kCorrupt) {
        core_.on_closed(now);  // framing desync: only a fresh stream helps
        return;
      }
      core_.on_frame(frame, now);
    }
    if (!open && fd_ >= 0) core_.on_closed(now);  // EOF or a hard error
  }

  /// A dial blocks until the leader answers the HELLO, the core's
  /// hello-ack deadline passes, or the connection fails.
  void await_hello_ack_locked() {
    while (core_.handshaking()) {
      core_.pump(now_ms());  // gives up once the deadline passed
      if (!core_.handshaking()) return;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) < 0 && errno != EINTR) {
        core_.on_closed(now_ms());
        return;
      }
      drain_locked(now_ms());
    }
  }

  const std::string host_;
  const std::uint16_t port_;
  mutable std::mutex mu_;
  int fd_ = -1;
  FrameDecoder decoder_;
  WorkerLinkCore core_;
  const Clock::time_point t0_;
};

/// Implements the driver's PointObserver so the Session announces point
/// starts and completions, plus a timer thread that keeps beating while a
/// single point runs long. The link owns the channel's failure story: it
/// reconnects on its own and only goes dead when the leader fences this
/// worker's epoch, which stops the beats — no point beating into the void.
class HeartbeatEmitter final : public driver::PointObserver {
 public:
  HeartbeatEmitter(SocketWorkerLink* link, std::size_t shard,
                   double interval_ms)
      : link_(link), shard_(shard), interval_ms_(interval_ms) {
    if (interval_ms_ > 0.0) {
      timer_ = std::thread([this] { timer_loop(); });
    }
  }
  ~HeartbeatEmitter() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
    if (timer_.joinable()) timer_.join();
  }
  HeartbeatEmitter(const HeartbeatEmitter&) = delete;
  HeartbeatEmitter& operator=(const HeartbeatEmitter&) = delete;

  void on_point_start(std::size_t index) override {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ = static_cast<std::int64_t>(index);
    emit_locked(Heartbeat::Kind::kPointStart);
  }

  void on_point_done(std::size_t index,
                     driver::PointStatus /*status*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_ == static_cast<std::int64_t>(index)) inflight_ = -1;
    ++done_;
    emit_locked(Heartbeat::Kind::kPointDone);
  }

 private:
  void timer_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    const auto interval =
        std::chrono::duration<double, std::milli>(interval_ms_);
    while (!cv_.wait_for(lock, interval, [this] { return stopped_; })) {
      emit_locked(Heartbeat::Kind::kProgress);
    }
  }

  void emit_locked(Heartbeat::Kind kind) {
    if (link_dead_) return;
    Heartbeat hb;
    hb.shard = shard_;
    hb.kind = kind;
    hb.points_done = done_;
    hb.inflight = inflight_;
    if (!link_->send_heartbeat(hb)) link_dead_ = true;
  }

  SocketWorkerLink* const link_;
  const std::size_t shard_;
  const double interval_ms_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  bool link_dead_ = false;
  std::uint64_t done_ = 0;
  std::int64_t inflight_ = -1;
  std::thread timer_;
};

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
    link = std::make_unique<SocketWorkerLink>(cfg, &g_worker_cancel);

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
    // A fence can land during the flush (the redial after a dropped
    // connection finds the epoch revoked): the leader has given this
    // window away, so this launch did not complete it.
    return link->fenced() ? kWorkerExitFenced : kWorkerExitOk;
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
