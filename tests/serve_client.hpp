// In-process psync_serve daemon and a blocking line client for the tests
// that drive it over a real Unix-domain socket.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "psync/common/check.hpp"
#include "psync/serve/protocol.hpp"
#include "psync/serve/server.hpp"

namespace psync::serve {

inline std::string temp_path(const std::string& name) {
  return testing::TempDir() + "psync_serve_" + name;
}

/// Minimal blocking line client for the tests.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    PSYNC_CHECK(fd_ >= 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    PSYNC_CHECK(socket_path.size() < sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// send + one-line response.
  std::string round_trip(const std::string& line) {
    EXPECT_TRUE(send_line(line));
    std::string response;
    EXPECT_TRUE(read_line(&response));
    return response;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

inline std::string submit_frame(const std::string& ini) {
  return "{\"op\":\"submit\",\"config\":" + json_string(ini) + "}";
}

/// The `results` reply for campaign `id`, polled until it is no longer
/// `not_finished` (up to 30 s).
inline std::string await_results(Client& client, const std::string& id) {
  const std::string frame =
      "{\"op\":\"results\",\"campaign\":" + json_string(id) + "}";
  std::string results = client.round_trip(frame);
  for (int i = 0; i < 3000 && results.find("not_finished") != std::string::npos;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    results = client.round_trip(frame);
  }
  return results;
}

struct DaemonFixture {
  explicit DaemonFixture(const std::string& tag, bool with_cache = true) {
    ServerOptions opts;
    opts.socket_path = temp_path(tag + ".sock");
    if (with_cache) opts.cache_dir = temp_path(tag + ".cache");
    std::remove(opts.socket_path.c_str());
    server = std::make_unique<Server>(opts);
    server->start();
    socket_path = opts.socket_path;
    cache_dir = opts.cache_dir;
  }
  ~DaemonFixture() {
    if (server) server->stop();
  }
  std::unique_ptr<Server> server;
  std::string socket_path;
  std::string cache_dir;
};

}  // namespace psync::serve
