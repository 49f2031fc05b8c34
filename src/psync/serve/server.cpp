#include "psync/serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace psync::serve {
namespace {

// Accept failures that must not take the daemon's front door down: a
// client that reset before we reached it (ECONNABORTED/EPROTO), fd
// exhaustion (EMFILE/ENFILE), or kernel memory pressure (ENOBUFS/ENOMEM).
bool transient_accept_error(int err) {
  return err == ECONNABORTED || err == EPROTO || err == EMFILE ||
         err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

}  // namespace

// The ServeIo seam over sockets, a wake pipe and driver::Session, run on
// one poll(2) thread. Connection state the core does not need — the fd,
// the unsent output — lives here; every decision is the core's.
class Server::Reactor final : public ServeIo {
 public:
  Reactor(Server* owner, int listen_fd)
      : owner_(owner), listen_fd_(listen_fd), core_(owner->opts_, this) {
    if (::pipe2(wake_, O_NONBLOCK | O_CLOEXEC) != 0) {
      throw SimulationError(std::string("serve: pipe2 failed: ") +
                            std::strerror(errno));
    }
    driver::Session::Options sopts;
    sopts.cache = &owner->cache_;
    sopts.on_change = [fd = wake_[1]] {
      // A full pipe already holds a pending wake; the byte can be dropped.
      const char byte = 1;
      const ssize_t n = ::write(fd, &byte, 1);
      (void)n;
    };
    session_ = driver::Session(sopts);
  }

  ~Reactor() override {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    for (auto& [id, link] : links_) ::close(link.fd);
    ::close(wake_[0]);
    ::close(wake_[1]);
  }

  /// Any thread: make run() shut down and return.
  void request_stop() {
    stop_.store(true);
    const char byte = 1;
    const ssize_t n = ::write(wake_[1], &byte, 1);
    (void)n;
  }

  void run();

  // ServeIo
  void send(ConnId conn, const std::string& line) override {
    const auto it = links_.find(conn);
    if (it == links_.end() || it->second.broken) return;
    it->second.out += line;
    it->second.out.push_back('\n');
    flush(it->second);
  }
  void close(ConnId conn) override {
    const auto it = links_.find(conn);
    if (it == links_.end()) return;
    it->second.closing = true;
    flush(it->second);
  }
  RunId start(driver::FrozenSpec frozen) override {
    runs_.push_back(session_.submit(std::move(frozen)));
    return runs_.size();
  }
  void cancel(RunId run) override { runs_[run - 1].cancel(); }
  driver::CampaignState state(RunId run) override {
    return runs_[run - 1].state();
  }
  driver::CampaignProgress progress(RunId run) override {
    return runs_[run - 1].progress();
  }
  std::size_t events_since(RunId run, std::size_t cursor,
                           std::vector<driver::CampaignEvent>* out) override {
    return runs_[run - 1].events_since(cursor, 0.0, out);
  }
  const driver::SweepResult& result(RunId run) override {
    return runs_[run - 1].result();
  }
  void request_shutdown() override { owner_->request_shutdown(); }

 private:
  struct Link {
    int fd = -1;
    std::string out;      // frames not yet taken by the socket
    std::size_t off = 0;  // first unsent byte of `out`
    bool closing = false; // the core closed it, or the peer sent EOF
    bool broken = false;  // a send or poll failed: drop it
  };

  /// Send what the socket takes without blocking; a hard error marks the
  /// link broken.
  static void flush(Link& link) {
    while (link.off < link.out.size()) {
      // MSG_NOSIGNAL: a client that hung up must fail this send with
      // EPIPE, not kill the daemon with SIGPIPE.
      const ssize_t n =
          ::send(link.fd, link.out.data() + link.off, link.out.size() - link.off,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) link.broken = true;
        break;
      }
      link.off += static_cast<std::size_t>(n);
    }
    if (link.off == link.out.size()) {
      link.out.clear();
      link.off = 0;
    }
  }

  /// Accept every pending connection. Returns how long to leave the
  /// listener out of the poll set (0: keep it).
  int accept_pending();
  void read_from(ConnId id, Link& link);
  /// Close and forget links that broke, and closing links that drained.
  void reap();
  void shut_down();

  Server* owner_;
  int listen_fd_;
  int wake_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  driver::Session session_;
  std::vector<driver::CampaignHandle> runs_;  // RunId n is runs_[n - 1]
  std::map<ConnId, Link> links_;
  ConnId next_conn_ = 1;
  int accept_failures_ = 0;
  std::vector<pollfd> fds_;  // run()'s poll set, rebuilt every turn
  std::vector<ConnId> ids_;  // the connection behind each fds_ entry
  ServeCore core_;
};

void Server::Reactor::run() {
  int pause_ms = 0;  // accept back-off: the listener sits out one poll
  for (;;) {
    fds_.clear();
    ids_.clear();
    fds_.push_back({wake_[0], POLLIN, 0});
    const bool listening = listen_fd_ >= 0 && pause_ms == 0;
    if (listening) fds_.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [id, link] : links_) {
      short events = 0;
      if (!link.closing && core_.reading(id)) events |= POLLIN;
      if (link.off < link.out.size()) events |= POLLOUT;
      fds_.push_back({link.fd, events, 0});
      ids_.push_back(id);
    }
    const int timeout = pause_ms > 0 ? pause_ms : -1;
    pause_ms = 0;
    if (::poll(fds_.data(), fds_.size(), timeout) < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "psync_serve: poll(2) failed (%s)\n",
                   std::strerror(errno));
      shut_down();
      return;
    }

    if ((fds_[0].revents & POLLIN) != 0) {
      char sink[256];
      while (::read(wake_[0], sink, sizeof(sink)) > 0) {
      }
      if (stop_.load()) {
        shut_down();
        return;
      }
      core_.on_campaigns_changed();
    }
    const std::size_t first_link = listening ? 2 : 1;
    if (listening && (fds_[1].revents & POLLIN) != 0) {
      pause_ms = accept_pending();
    }
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      const auto it = links_.find(ids_[i]);
      if (it == links_.end()) continue;
      Link& link = it->second;
      const short revents = fds_[first_link + i].revents;
      if ((revents & POLLOUT) != 0) flush(link);
      if (link.closing || link.broken) continue;
      if ((revents & POLLIN) != 0 && core_.reading(ids_[i])) {
        read_from(ids_[i], link);
      } else if ((revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
        link.broken = true;
      }
    }
    reap();
  }
}

int Server::Reactor::accept_pending() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      accept_failures_ = 0;
      const ConnId id = next_conn_++;
      links_[id].fd = fd;
      core_.on_open(id);
      continue;
    }
    const int err = errno;
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK) return 0;
    if (transient_accept_error(err)) {
      // Log and back off so the pressure can clear: an EMFILE tight loop
      // would burn the CPU without freeing a single descriptor. The pause
      // is a poll timeout, so the daemon reads no clock.
      ++accept_failures_;
      std::fprintf(stderr, "psync_serve: accept(2) failed (%s); retrying\n",
                   std::strerror(err));
      return std::min(1000, 10 << std::min(accept_failures_, 7));
    }
    // The listener itself is broken (EBADF, EINVAL): stop accepting and
    // keep serving the connections already open.
    std::fprintf(stderr, "psync_serve: accept(2) failed (%s); not accepting\n",
                 std::strerror(err));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return 0;
  }
}

void Server::Reactor::read_from(ConnId id, Link& link) {
  char chunk[16384];
  const ssize_t n = ::recv(link.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n > 0) {
    core_.on_bytes(id, chunk, static_cast<std::size_t>(n));
    return;
  }
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return;
  }
  if (n < 0) {
    link.broken = true;
    return;
  }
  // EOF: the client is done sending. Its replies are all queued (nothing
  // was parked, or the link would not have been read); flush, then close.
  core_.on_closed(id);
  link.closing = true;
}

void Server::Reactor::reap() {
  for (auto it = links_.begin(); it != links_.end();) {
    Link& link = it->second;
    const bool drained = link.off == link.out.size();
    if (!link.broken && !(link.closing && drained)) {
      ++it;
      continue;
    }
    if (!link.closing) core_.on_closed(it->first);
    ::close(link.fd);
    it = links_.erase(it);
  }
}

void Server::Reactor::shut_down() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(owner_->opts_.socket_path.c_str());
  // Cancel every campaign and wait them all out (their journal tails are
  // durable); then the core answers the parked requests and closes every
  // connection, and each gets one non-blocking flush.
  core_.stop();
  for (driver::CampaignHandle& handle : runs_) handle.wait();
  core_.on_campaigns_changed();
  for (auto& [id, link] : links_) {
    if (!link.broken) flush(link);
    ::close(link.fd);
  }
  links_.clear();
}

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {}

Server::~Server() { stop(); }

void Server::start() {
  PSYNC_CHECK(reactor_ == nullptr);
  // With no cache directory the ResultCache still serves hits in memory
  // (journals and restart durability just don't happen) — unit-test mode.
  if (!opts_.cache_dir.empty()) cache_.open(opts_.cache_dir);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.empty() ||
      opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw SimulationError("serve: socket path '" + opts_.socket_path +
                          "' is empty or too long for a unix socket");
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw SimulationError(std::string("serve: socket(2) failed: ") +
                          std::strerror(errno));
  }
  // A previous daemon's stale socket file would make bind fail; the unlink
  // is safe because two live daemons on one path is exactly the collision
  // this replaces with a fresh bind.
  ::unlink(opts_.socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw SimulationError("serve: cannot bind '" + opts_.socket_path +
                          "': " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(opts_.socket_path.c_str());
    throw SimulationError("serve: listen on '" + opts_.socket_path +
                          "' failed: " + err);
  }
  try {
    reactor_ = std::make_unique<Reactor>(this, fd);
  } catch (...) {
    ::close(fd);
    ::unlink(opts_.socket_path.c_str());
    throw;
  }
  thread_ = std::thread([this] { reactor_->run(); });
}

void Server::stop() {
  if (thread_.joinable()) {
    reactor_->request_stop();
    thread_.join();
  }
  request_shutdown();
}

void Server::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

}  // namespace psync::serve
