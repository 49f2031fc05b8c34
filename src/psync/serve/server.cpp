#include "psync/serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace psync::serve {

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {}

Server::~Server() { stop(); }

bool Server::send_line(int fd, const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  std::size_t off = 0;
  while (off < buf.size()) {
    // MSG_NOSIGNAL: a client that hung up must fail this send with EPIPE,
    // not kill the daemon with SIGPIPE.
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void Server::start() {
  PSYNC_CHECK(listen_fd_ < 0);
  // With no cache directory the ResultCache still serves hits in memory
  // (journals and restart durability just don't happen) — unit-test mode.
  if (!opts_.cache_dir.empty()) cache_.open(opts_.cache_dir);
  driver::Session::Options sopts;
  sopts.cache = &cache_;
  session_ = driver::Session(sopts);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.empty() ||
      opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw SimulationError("serve: socket path '" + opts_.socket_path +
                          "' is empty or too long for a unix socket");
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
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
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (stopping_.exchange(true)) return;

  // Break the accept loop first so no new connections arrive while the
  // existing ones are being shut down.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
  }

  // Wake every connection thread: shutdown(2) makes their blocked recv
  // return 0. The fd list only holds live descriptors (serve_connection
  // removes its own before closing), and conn_mu_ excludes that removal,
  // so no reused fd can be hit here.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }

  // Cancel campaigns still running and wait them out so the process can
  // exit without abandoned threads; their journal tails are durable.
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    for (auto& [digest, entry] : registry_) entry.handle.cancel();
    for (auto& [digest, entry] : registry_) entry.handle.wait();
  }

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

std::size_t Server::campaigns() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return registry_.size();
}

void Server::accept_loop() {
  int accept_failures = 0;
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load()) break;  // stop() shut the listener down
      const int err = errno;
      if (err == ECONNABORTED || err == EPROTO || err == EMFILE ||
          err == ENFILE || err == ENOBUFS || err == ENOMEM ||
          err == EAGAIN || err == EWOULDBLOCK) {
        // Transient: a client that reset before we reached it
        // (ECONNABORTED/EPROTO), fd exhaustion (EMFILE/ENFILE), or
        // kernel memory pressure (ENOBUFS/ENOMEM). None of these may
        // take the daemon's front door down — log, back off so the
        // pressure can clear (an EMFILE tight-loop would burn the CPU
        // without freeing a single descriptor), and keep accepting.
        ++accept_failures;
        std::fprintf(stderr, "psync_serve: accept(2) failed (%s); retrying\n",
                     std::strerror(err));
        const int shift = std::min(accept_failures, 7);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(1000, 10 << shift)));
        continue;
      }
      break;  // the listener itself is broken (EBADF, EINVAL): give up
    }
    accept_failures = 0;
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void Server::serve_connection(int fd) {
  std::string buf;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: client is gone
    buf.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (!handle_request(fd, line)) {
        open = false;
        break;
      }
    }
    buf.erase(0, start);

    if (buf.size() > opts_.max_line_bytes) {
      send_line(fd, error_frame("frame_too_long",
                                "request line exceeds " +
                                    std::to_string(opts_.max_line_bytes) +
                                    " bytes"));
      break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::close(fd);
}

bool Server::handle_request(int fd, const std::string& line) {
  Request req;
  const FrameError err = parse_request(line, &req);
  if (err != FrameError::kNone) {
    send_line(fd, error_frame(to_string(err),
                              "malformed request frame (" +
                                  std::string(to_string(err)) + ")"));
    return true;  // a bad frame poisons nothing; keep the connection
  }
  switch (req.op) {
    case Op::kSubmit: handle_submit(fd, req); return true;
    case Op::kStatus: handle_status(fd, req); return true;
    case Op::kResults: handle_results(fd, req); return true;
    case Op::kSubscribe: handle_subscribe(fd, req); return true;
    case Op::kCancel: handle_cancel(fd, req); return true;
    case Op::kShutdown: {
      send_line(fd, "{\"ok\":true,\"shutdown\":true}");
      {
        std::lock_guard<std::mutex> lock(shutdown_mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      return false;
    }
  }
  return true;
}

void Server::handle_submit(int fd, const Request& req) {
  driver::FrozenSpec frozen;
  try {
    const IniConfig cfg = IniConfig::parse(req.config);
    driver::ExperimentSpec spec = driver::spec_from_config(cfg);
    if (req.threads > 0) {
      spec.threads = static_cast<std::size_t>(req.threads);
    } else if (opts_.threads > 0) {
      spec.threads = opts_.threads;
    }
    frozen = driver::Session::freeze(spec);
  } catch (const SimulationError& e) {
    send_line(fd, error_frame("invalid_spec", e.what()));
    return;
  }

  // Execution policy is the daemon's, not the submission's: journal into
  // the cache directory under the campaign's content digest, resume
  // always on (a resubmitted campaign IS a resume of its own journal).
  // These fields are excluded from the digest, so the mutation does not
  // detach the frozen spec from its identity.
  if (cache_.is_open()) {
    frozen.spec.journal_path = cache_.journal_path(frozen.digest);
    frozen.spec.resume = true;
  }

  const std::uint64_t digest = frozen.digest;
  const std::size_t points = frozen.points.size();
  bool attached = false;
  {
    // Dedupe by digest: a concurrent identical submission attaches to the
    // in-flight campaign instead of colliding on its journal's flock.
    std::lock_guard<std::mutex> lock(reg_mu_);
    const auto it = registry_.find(digest);
    if (it != registry_.end()) {
      attached = true;
    } else {
      Entry entry;
      entry.handle = session_.submit(std::move(frozen));
      registry_.emplace(digest, std::move(entry));
    }
  }

  std::ostringstream os;
  os << "{\"ok\":true,\"campaign\":" << json_string(campaign_id(digest))
     << ",\"points\":" << points
     << ",\"attached\":" << (attached ? "true" : "false") << '}';
  send_line(fd, os.str());
}

bool Server::find_campaign(int fd, std::uint64_t digest, Entry** out) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  const auto it = registry_.find(digest);
  if (it == registry_.end()) {
    send_line(fd, error_frame("unknown_campaign",
                              "no campaign " + campaign_id(digest) +
                                  " on this daemon"));
    return false;
  }
  // std::map nodes are stable and entries are never erased, so the
  // pointer stays valid after the lock drops.
  *out = &it->second;
  return true;
}

namespace {

std::string progress_fields(const driver::CampaignProgress& p) {
  std::ostringstream os;
  os << "\"total\":" << p.total << ",\"completed\":" << p.completed
     << ",\"executed\":" << p.executed << ",\"cache_hits\":" << p.cache_hits
     << ",\"resumed\":" << p.resumed;
  return os.str();
}

}  // namespace

void Server::handle_status(int fd, const Request& req) {
  Entry* entry = nullptr;
  if (!find_campaign(fd, req.campaign, &entry)) return;
  std::ostringstream os;
  os << "{\"ok\":true,\"campaign\":" << json_string(campaign_id(req.campaign))
     << ",\"state\":" << json_string(to_string(entry->handle.state())) << ','
     << progress_fields(entry->handle.progress()) << '}';
  send_line(fd, os.str());
}

void Server::handle_results(int fd, const Request& req) {
  Entry* entry = nullptr;
  if (!find_campaign(fd, req.campaign, &entry)) return;
  if (!req.wait && !entry->handle.done()) {
    send_line(fd, error_frame("not_finished",
                              "campaign " + campaign_id(req.campaign) +
                                  " is still running (pass wait)"));
    return;
  }

  std::string body;
  try {
    const driver::SweepResult& result = entry->handle.result();
    const bool want_json = req.format == "json";
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      if (want_json && entry->has_json) body = entry->json_body;
      if (!want_json && entry->has_csv) body = entry->csv_body;
    }
    if (body.empty()) {
      body = want_json ? driver::sweep_json(result)
                       : driver::sweep_csv(result);
      std::lock_guard<std::mutex> lock(reg_mu_);
      if (want_json) {
        entry->json_body = body;
        entry->has_json = true;
      } else {
        entry->csv_body = body;
        entry->has_csv = true;
      }
    }
  } catch (const std::exception& e) {
    send_line(fd, error_frame("campaign_failed", e.what()));
    return;
  }

  std::ostringstream os;
  os << "{\"ok\":true,\"campaign\":" << json_string(campaign_id(req.campaign))
     << ",\"format\":" << json_string(req.format) << ','
     << progress_fields(entry->handle.progress())
     << ",\"body\":" << json_string(body) << '}';
  send_line(fd, os.str());
}

void Server::handle_subscribe(int fd, const Request& req) {
  Entry* entry = nullptr;
  if (!find_campaign(fd, req.campaign, &entry)) return;
  const std::string id = campaign_id(req.campaign);

  std::size_t cursor = 0;
  std::vector<driver::CampaignEvent> events;
  bool alive = true;
  for (;;) {
    events.clear();
    // Replay from the cursor and wait (bounded, so stop() is noticed) for
    // new completions. Cursor 0 replays the full history: a late
    // subscriber misses nothing.
    cursor = entry->handle.events_since(cursor, 250.0, &events);
    for (const auto& ev : events) {
      std::ostringstream os;
      os << "{\"event\":\"point\",\"campaign\":" << json_string(id)
         << ",\"index\":" << ev.index << ",\"status\":"
         << json_string(driver::to_string(ev.status))
         << ",\"source\":" << json_string(driver::to_string(ev.source))
         << ",\"record\":" << driver::point_json(ev.record) << '}';
      if (!send_line(fd, os.str())) {
        alive = false;
        break;
      }
    }
    if (!alive || stopping_.load()) return;
    if (entry->handle.done() && cursor == entry->handle.events_since(
                                              cursor, 0.0, &events)) {
      // Done and drained (the second events_since call re-checks under
      // the campaign lock, so no completion can slip between the two).
      break;
    }
  }

  std::ostringstream os;
  os << "{\"event\":\"done\",\"campaign\":" << json_string(id)
     << ",\"state\":" << json_string(to_string(entry->handle.state())) << ','
     << progress_fields(entry->handle.progress()) << '}';
  send_line(fd, os.str());
}

void Server::handle_cancel(int fd, const Request& req) {
  Entry* entry = nullptr;
  if (!find_campaign(fd, req.campaign, &entry)) return;
  entry->handle.cancel();
  std::ostringstream os;
  os << "{\"ok\":true,\"campaign\":" << json_string(campaign_id(req.campaign))
     << ",\"cancelled\":true}";
  send_line(fd, os.str());
}

}  // namespace psync::serve
