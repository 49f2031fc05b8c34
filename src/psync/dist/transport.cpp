#include "psync/dist/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "psync/common/check.hpp"
#include "psync/common/config.hpp"

namespace psync::dist {

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
