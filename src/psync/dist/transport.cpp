#include "psync/dist/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

#include "psync/common/check.hpp"
#include "psync/common/config.hpp"

namespace psync::dist {

// --- SocketWorkerLink --------------------------------------------------

SocketWorkerLink::SocketWorkerLink(const SocketLinkOptions& opts,
                                   CancelToken* on_fenced)
    : opts_(opts),
      on_fenced_(on_fenced),
      chaos_(opts.chaos),
      backoff_(opts.reconnect_base_ms, opts.reconnect_cap_ms,
               opts.reconnect_seed),
      t0_(std::chrono::steady_clock::now()) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)ensure_connected_locked(now_ms());
}

SocketWorkerLink::~SocketWorkerLink() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

double SocketWorkerLink::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

bool SocketWorkerLink::send_heartbeat(const Heartbeat& hb) {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = now_ms();
  pump_locked(now);
  if (fenced_) return false;
  if (fd_ >= 0) {
    transmit_locked({FrameKind::kHeartbeat, heartbeat_line(hb)}, now);
  }
  // Disconnected is not dead: the reconnect loop keeps trying, and a
  // missed heartbeat during an outage is exactly what the leader's
  // connection-loss taxonomy is for.
  return !fenced_;
}

void SocketWorkerLink::send_journal(std::size_t index,
                                    const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fenced_) return;
  const double now = now_ms();
  unacked_[index] = Pending{line, -1.0};
  pump_locked(now);
  if (fd_ >= 0) {
    transmit_locked({FrameKind::kJournal, journal_payload(index, line)}, now);
    const auto it = unacked_.find(index);
    if (it != unacked_.end()) it->second.last_sent_ms = now;
  }
}

bool SocketWorkerLink::fenced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fenced_;
}

bool SocketWorkerLink::flush(double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  for (;;) {
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fenced_) return false;
      if (unacked_.empty()) return true;
      pump_locked(now_ms());
      if (unacked_.empty()) return true;
      fd = fd_;
    }
    const double left_ms = std::chrono::duration<double, std::milli>(
                               deadline - std::chrono::steady_clock::now())
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
  return unacked_.empty();
}

void SocketWorkerLink::pump_locked(double now) {
  if (fenced_) return;
  if (!ensure_connected_locked(now)) return;
  drain_locked(now);
  if (fd_ < 0 || fenced_) return;
  // Retransmit shipped-but-unacked records (a dropped frame, or a
  // reconnect that raced the ack). The leader dedups by index, so an ack
  // that was merely delayed costs one agreeing duplicate, nothing more.
  for (auto& [index, pending] : unacked_) {
    if (pending.last_sent_ms >= 0.0 &&
        now - pending.last_sent_ms < opts_.resend_ms) {
      continue;
    }
    transmit_locked({FrameKind::kJournal, journal_payload(index, pending.line)},
                    now);
    pending.last_sent_ms = now;
    if (fd_ < 0) return;  // transmit noticed a dead connection
  }
  // Release chaos-delayed frames whose hold expired.
  for (const Frame& frame : chaos_.due(now)) {
    if (fd_ < 0) break;
    send_locked(frame, now);
  }
}

bool SocketWorkerLink::ensure_connected_locked(double now) {
  if (fd_ >= 0) return true;
  if (fenced_) return false;
  if (chaos_.partitioned(now)) return false;  // the net is "down"
  if (now < next_connect_ms_) return false;
  const int fd = tcp_connect(opts_.host, opts_.port);
  if (fd < 0) {
    next_connect_ms_ = now + backoff_.next_ms();
    return false;
  }
  // Nonblocking from here on: the handshake waits in poll, then the pump
  // drains acks.
  const int fl = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  decoder_.reset();
  const auto give_up = [&] {
    ::close(fd);
    decoder_.reset();
    next_connect_ms_ = now + backoff_.next_ms();
    return false;
  };
  // Handshake, in the clear (chaos applies to post-handshake frames only:
  // a HELLO that never arrives is indistinguishable from the connect
  // failing, which the partition injection already covers).
  const HelloClaim claim{opts_.shard, opts_.epoch};
  if (!send_frame(fd, {FrameKind::kHello, hello_payload(claim)},
                  /*keep_waiting=*/true)) {
    return give_up();
  }
  // Wait (bounded) for the ack.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              opts_.handshake_timeout_ms));
  Frame ack;
  for (;;) {
    const FrameDecoder::Result r = decoder_.next(&ack);
    if (r == FrameDecoder::Result::kFrame) break;
    if (r == FrameDecoder::Result::kCorrupt ||
        std::chrono::steady_clock::now() >= deadline) {
      return give_up();
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) < 0 && errno != EINTR) return give_up();
    if (!read_frames(fd, &decoder_)) return give_up();
  }
  if (ack.kind != FrameKind::kHelloAck) return give_up();
  if (hello_ack_fenced(ack.payload)) {
    ::close(fd);
    decoder_.reset();
    fence_locked();
    return false;
  }
  fd_ = fd;
  backoff_.reset();
  next_connect_ms_ = 0.0;
  // Everything unacked goes again right away — the previous connection
  // may have died with records in flight.
  for (auto& [index, pending] : unacked_) {
    transmit_locked({FrameKind::kJournal, journal_payload(index, pending.line)},
                    now);
    pending.last_sent_ms = now;
    if (fd_ < 0) return false;
  }
  return fd_ >= 0;
}

void SocketWorkerLink::drain_locked(double now) {
  if (fd_ < 0) return;
  if (!read_frames(fd_, &decoder_)) {
    disconnect_locked(now);  // EOF or a hard error
    return;
  }
  Frame frame;
  for (;;) {
    const FrameDecoder::Result r = decoder_.next(&frame);
    if (r == FrameDecoder::Result::kNeedMore) break;
    if (r == FrameDecoder::Result::kCorrupt) {
      disconnect_locked(now);  // framing desync: only a fresh stream helps
      return;
    }
    switch (frame.kind) {
      case FrameKind::kJournalAck: {
        std::size_t index = 0;
        if (parse_journal_ack_payload(frame.payload, &index)) {
          unacked_.erase(index);
        }
        break;
      }
      case FrameKind::kHelloAck:
        // A late fence: the leader decided mid-stream this epoch is done.
        if (hello_ack_fenced(frame.payload)) {
          disconnect_locked(now);
          fence_locked();
          return;
        }
        break;
      default:
        break;  // leader never sends other kinds; ignore
    }
  }
}

void SocketWorkerLink::transmit_locked(const Frame& frame, double now) {
  for (const Frame& out : chaos_.offer(frame, now)) {
    if (fd_ < 0) break;
    send_locked(out, now);
  }
  if (chaos_.take_partition(now) && fd_ >= 0) {
    disconnect_locked(now);
  }
}

void SocketWorkerLink::send_locked(const Frame& frame, double now) {
  // A full kernel buffer (tiny frames, so this is rare) is waited out:
  // blocking briefly beats dropping the frame on the floor.
  if (!send_frame(fd_, frame, /*keep_waiting=*/true)) disconnect_locked(now);
}

void SocketWorkerLink::disconnect_locked(double now) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_.reset();
  next_connect_ms_ = now + backoff_.next_ms();
}

void SocketWorkerLink::fence_locked() {
  fenced_ = true;
  if (on_fenced_ != nullptr) on_fenced_->cancel();
}

// --- TCP plumbing ------------------------------------------------------

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

int tcp_listen(const std::string& host, std::uint16_t port,
               std::uint16_t* actual_port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &res);
  if (rc != 0) {
    throw SimulationError("dist: cannot resolve listen address '" + host +
                          "': " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string err = "no usable address";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      err = std::strerror(errno);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, 64) == 0) {
      break;
    }
    err = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw SimulationError("dist: cannot listen on " + host + ":" +
                          std::to_string(port) + ": " + err);
  }
  if (actual_port != nullptr) {
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      if (addr.ss_family == AF_INET) {
        *actual_port =
            ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
      } else if (addr.ss_family == AF_INET6) {
        *actual_port =
            ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
      }
    }
  }
  const int fl = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  return fd;
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(fd);
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

int tcp_accept(int listen_fd) {
  int fd = -1;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return -1;
  const int fl = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  set_nodelay(fd);
  return fd;
}

bool read_frames(int fd, FrameDecoder* decoder) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      decoder->feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool send_frame(int fd, const Frame& frame, bool keep_waiting) {
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
      if (::poll(&pfd, 1, 100) <= 0 && !keep_waiting) return false;
      continue;
    }
    return false;
  }
  return true;
}

bool parse_host_port(const std::string& s, std::string* host,
                     std::uint16_t* port) {
  const std::size_t colon = s.rfind(':');
  std::string port_str;
  if (colon == std::string::npos) {
    *host = "127.0.0.1";
    port_str = s;
  } else {
    *host = s.substr(0, colon);
    port_str = s.substr(colon + 1);
  }
  if (host->empty() || port_str.empty()) return false;
  const auto v = parse_decimal(port_str);
  if (!v || *v > 65535) return false;
  *port = static_cast<std::uint16_t>(*v);
  return true;
}

}  // namespace psync::dist
