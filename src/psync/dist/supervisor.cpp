// The POSIX side of the sweep leader: the one production implementation
// of LeaderIo (leader.hpp). It listens for worker connections, forks the
// workers, reaps them, signals them, and owns the flock'd shard journals;
// LeaderCore decides everything else.
#include "psync/dist/supervisor.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "psync/common/cancel.hpp"
#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/leader.hpp"
#include "psync/dist/transport.hpp"

namespace psync::dist {

namespace {

/// The loop never sleeps past this, so child exits (reaped with WNOHANG)
/// are noticed promptly even when no deadline is near.
constexpr double kPollCapMs = 50.0;
/// Shortest ordinary sleep, so an overdue deadline does not spin the loop.
constexpr int kPollFloorMs = 5;
/// Sleep while LeaderCore::exit_expected(): the worker's fds close before
/// its zombie becomes waitable, so tick fast until waitpid catches it.
constexpr int kExitReapTickMs = 2;
/// A connection gets this long from accept to deliver its first frame
/// (the HELLO) before it is dropped: a dialer that never identifies
/// itself is noise, not a worker.
constexpr double kHelloGraceMs = 2000.0;

/// SweepEngine threads inside each worker. Must stay 1: ascending
/// single-thread execution keeps a shard's unfinished remainder a
/// contiguous suffix and makes the heartbeat's in-flight index exact,
/// which the leader's remaining-points estimate and stealing rely on.
constexpr std::size_t kWorkerThreads = 1;

class PosixLeaderIo final : public LeaderIo {
 public:
  PosixLeaderIo(const driver::ExperimentSpec& spec,
                const SupervisorOptions& opts, const LaunchHook& hook)
      : cancel_(spec.cancel), opts_(opts), hook_(hook), t0_(Clock::now()) {
    worker_spec_ = spec;
    worker_spec_.threads = kWorkerThreads;
    worker_spec_.journal_path.clear();
    worker_spec_.cancel = nullptr;    // workers install their own token
    worker_spec_.observer = nullptr;  // workers attach their own emitter
    worker_spec_.quarantine_indices.clear();
    worker_spec_.shard_begin = 0;
    worker_spec_.shard_end = static_cast<std::size_t>(-1);
  }

  ~PosixLeaderIo() override { teardown(); }

  driver::SweepResult run(LeaderCore& core) {
    listen_fd_ = tcp_listen(opts_.listen_host, opts_.listen_port,
                            &listen_port_);
    while (core.running()) {
      const double now = now_ms();
      if (cancel_ != nullptr && cancel_->cancelled()) core.cancel(now);
      core.schedule(now);
      wait_for_events(core, now);
      reap(core);
      const double after = now_ms();
      drop_silent_connections(after);
      core.enforce_deadlines(after);
    }
    teardown();
    return core.finish();
  }

  // --- LeaderIo --------------------------------------------------------

  WorkerId launch(WorkerConfig cfg) override {
    cfg.connect_host = opts_.advertise_host.empty() ? opts_.listen_host
                                                    : opts_.advertise_host;
    cfg.connect_port = listen_port_;
    if (hook_) hook_(cfg);
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw SimulationError(std::string("distributed sweep: fork(2) failed: ") +
                            std::strerror(errno));
    }
    if (pid == 0) {
      // Child: drop every leader-side fd — the listener, the connections
      // and the journal writers.
      ::close(listen_fd_);
      for (const auto& [id, conn] : conns_) ::close(conn.fd);
      for (auto& [id, writer] : journals_) writer->close();
      ::_exit(run_worker(worker_spec_, cfg));
    }
    children_.insert(pid);
    return pid;
  }

  void terminate(WorkerId worker) override {
    ::kill(static_cast<pid_t>(worker), SIGTERM);
  }

  void kill(WorkerId worker) override {
    ::kill(static_cast<pid_t>(worker), SIGKILL);
  }

  bool send(ConnId id, const Frame& frame) override {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return false;
    // Small control frames normally land in the socket buffer whole; a
    // full buffer gets one short wait, then the connection counts as
    // dropped rather than stalling the whole leader.
    return send_frame(it->second.fd, frame, /*keep_waiting=*/false);
  }

  void close(ConnId id) override {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    ::close(it->second.fd);
    conns_.erase(it);
  }

  JournalId open_journal(const std::string& path) override {
    auto writer = std::make_unique<JournalWriter>();
    writer->open(path, /*keep_existing=*/true);
    const JournalId id = next_journal_++;
    journals_[id] = std::move(writer);
    return id;
  }

  void append(JournalId id, const std::string& line) override {
    journals_.at(id)->append(line);
  }

  void close_journal(JournalId id) override { journals_.erase(id); }

  bool journal_exists(const std::string& path) override {
    return static_cast<bool>(std::ifstream(path));
  }

  std::vector<std::string> read_journal(const std::string& path) override {
    return read_journal_lines(path);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::optional<double> hello_deadline;  // cleared by its first frame
  };

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }

  /// Sleep until the core's nearest deadline or the first readable
  /// connection, then hand over what arrived.
  void wait_for_events(LeaderCore& core, double now) {
    std::vector<pollfd> fds;
    std::vector<ConnId> owner;  // 0: the listener
    fds.push_back({listen_fd_, POLLIN, 0});
    owner.push_back(0);
    double deadline = core.next_deadline_ms();
    for (const auto& [id, conn] : conns_) {
      fds.push_back({conn.fd, POLLIN, 0});
      owner.push_back(id);
      if (conn.hello_deadline) {
        deadline = std::min(deadline, *conn.hello_deadline);
      }
    }
    const int timeout =
        core.exit_expected(now)
            ? kExitReapTickMs
            : std::max(kPollFloorMs, static_cast<int>(std::ceil(std::min(
                                         kPollCapMs, deadline - now))));
    const int n =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
    if (n <= 0) return;  // timeout or EINTR: deadlines handled by caller
    bool accepted = false;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (owner[i] == 0) {
        accepted = true;  // accept after the loop: conns_ may grow
      } else {
        service(core, owner[i]);
      }
    }
    if (accepted) accept_connections();
  }

  void accept_connections() {
    for (;;) {
      // EAGAIN drained the backlog; anything else (ECONNABORTED, EMFILE,
      // ...) is transient from the leader's point of view — the worker
      // retries with backoff, so just move on.
      const int fd = tcp_accept(listen_fd_);
      if (fd < 0) break;
      conns_[next_conn_++] = Conn{fd, {}, now_ms() + kHelloGraceMs};
    }
  }

  void drop_silent_connections(double now) {
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second.hello_deadline && now >= *it->second.hello_deadline) {
        ::close(it->second.fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Read one connection dry and deliver its complete frames. EOF, a read
  /// error or a framing desync (unrecoverable on a byte stream: the worker
  /// reconnects and the codec starts clean) closes it.
  void service(LeaderCore& core, ConnId id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    bool open = read_frames(it->second.fd, &it->second.decoder);
    const double now = now_ms();
    Frame frame;
    for (;;) {
      it = conns_.find(id);
      if (it == conns_.end()) return;  // the core closed it
      const auto r = it->second.decoder.next(&frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kCorrupt) {
        open = false;
        break;
      }
      it->second.hello_deadline.reset();
      core.on_frame(id, frame, now);
    }
    if (open) return;
    close(id);
    core.on_closed(id, now);
  }

  void reap(LeaderCore& core) {
    // Wait on our own pids only: a host process (test binary, CLI) may
    // have children of its own, and waitpid(-1) would swallow their
    // statuses.
    std::vector<std::pair<pid_t, int>> exited;
    for (auto it = children_.begin(); it != children_.end();) {
      int wstatus = 0;
      const pid_t pid = ::waitpid(*it, &wstatus, WNOHANG);
      if (pid == *it) exited.emplace_back(pid, wstatus);
      if (pid == *it || (pid < 0 && errno == ECHILD)) {
        it = children_.erase(it);
      } else {
        ++it;
      }
    }
    if (exited.empty()) return;
    // Salvage frames still in the socket buffers: a worker's last records
    // may land after the poll that preceded its exit.
    std::vector<ConnId> ids;
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (const ConnId id : ids) service(core, id);
    for (const auto& [pid, w] : exited) {
      core.on_exit(pid,
                   WorkerExit{WIFEXITED(w), WIFEXITED(w) ? WEXITSTATUS(w) : 0,
                              WIFSIGNALED(w) ? WTERMSIG(w) : 0},
                   now_ms());
    }
  }

  /// Close every leader-side fd and end every worker still running.
  /// Idempotent; runs both on the normal exit path and from the
  /// destructor (an exception mid-loop must not leak fds or children).
  /// Besides workers an exception interrupted, these are partitioned
  /// workers the core deliberately left alive so fencing could turn them
  /// away: the run is over and nobody will answer their reconnects.
  void teardown() {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (const auto& [id, conn] : conns_) ::close(conn.fd);
    conns_.clear();
    for (const pid_t pid : children_) {
      ::kill(pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
    }
    children_.clear();
  }

  const CancelToken* const cancel_;
  driver::ExperimentSpec worker_spec_;  // scrubbed copy workers overlay
  const SupervisorOptions& opts_;
  const LaunchHook& hook_;
  const Clock::time_point t0_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::map<ConnId, Conn> conns_;
  ConnId next_conn_ = 1;
  std::set<pid_t> children_;  // forked and not yet reaped
  std::map<JournalId, std::unique_ptr<JournalWriter>> journals_;
  JournalId next_journal_ = 1;
};

}  // namespace

driver::SweepResult run_distributed(const driver::ExperimentSpec& spec,
                                    const SupervisorOptions& opts,
                                    const LaunchHook& hook) {
  PosixLeaderIo io(spec, opts, hook);
  LeaderCore core(spec, opts, &io);
  return io.run(core);
}

}  // namespace psync::dist
