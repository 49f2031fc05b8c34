// psync_submit — thin client for the psync_serve campaign service.
//
// Modes:
//   psync_submit --socket PATH [--json | --csv] [--threads N] [--subscribe]
//                <config.ini>
//   psync_submit --socket PATH --status --id HEX16
//   psync_submit --socket PATH --cancel --id HEX16
//   psync_submit --socket PATH --shutdown
//
// A submit sends the INI text to the daemon, waits for the campaign to
// finish, and prints the rendered body to stdout with exactly the bytes
// `psync_sim --json` / `--csv` would print — so
// `cmp <(psync_submit ...) <(psync_sim ...)` holds. The campaign id,
// progress and cache accounting go to stderr. --subscribe additionally
// streams the daemon's per-point event frames to stderr as they happen.
//
// --status / --cancel / --shutdown print the daemon's raw response frame
// to stdout (one JSON object per line — pipe into your own tooling).
//
// Exit codes: 0 success; 1 connection/protocol/campaign error; 2 usage.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "psync/common/config.hpp"
#include "psync/serve/protocol.hpp"

namespace {

using namespace psync::serve;

int usage() {
  std::fprintf(
      stderr,
      "usage: psync_submit --socket PATH [--json | --csv] [--threads N]\n"
      "                    [--subscribe] <config.ini>\n"
      "       psync_submit --socket PATH --status --id HEX16\n"
      "       psync_submit --socket PATH --cancel --id HEX16\n"
      "       psync_submit --socket PATH --shutdown\n");
  return 2;
}

int connect_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "psync_submit: socket: %s\n", std::strerror(errno));
    return -1;
  }
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "psync_submit: socket path too long: %s\n",
                 path.c_str());
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "psync_submit: connect %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking buffered line read. False on EOF or error.
bool read_line(int fd, std::string* buf, std::string* line) {
  for (;;) {
    const std::size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buf, 0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf->append(chunk, static_cast<std::size_t>(n));
  }
}

/// True for an {"ok":true,...} frame; prints the error to stderr otherwise.
bool check_ok(const std::string& frame) {
  bool ok = false;
  if (find_bool_field(frame, "ok", &ok) && ok) return true;
  std::string code = "?";
  std::string msg;
  find_string_field(frame, "error", &code);
  find_string_field(frame, "message", &msg);
  std::fprintf(stderr, "psync_submit: server error %s: %s\n", code.c_str(),
               msg.c_str());
  return false;
}

enum class Mode { kSubmit, kStatus, kCancel, kShutdown };

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string config_path;
  std::string id_hex;
  bool json = false;
  bool csv = false;
  bool subscribe = false;
  std::uint64_t threads = 0;
  Mode mode = Mode::kSubmit;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      if (i + 1 >= argc) return usage();
      socket_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--subscribe") {
      subscribe = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc) return usage();
      const auto n = psync::parse_decimal(argv[++i]);
      if (!n || *n == 0) return usage();
      threads = *n;
    } else if (arg == "--status") {
      mode = Mode::kStatus;
    } else if (arg == "--cancel") {
      mode = Mode::kCancel;
    } else if (arg == "--shutdown") {
      mode = Mode::kShutdown;
    } else if (arg == "--id") {
      if (i + 1 >= argc) return usage();
      id_hex = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      return usage();
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      return usage();
    }
  }
  if (socket_path.empty()) return usage();
  if (json && csv) return usage();
  if (mode == Mode::kSubmit && config_path.empty()) return usage();
  if ((mode == Mode::kStatus || mode == Mode::kCancel) && id_hex.empty()) {
    return usage();
  }

  const int fd = connect_socket(socket_path);
  if (fd < 0) return 1;
  std::string buf;
  std::string frame;

  if (mode == Mode::kShutdown) {
    if (!send_line(fd, "{\"op\":\"shutdown\"}") ||
        !read_line(fd, &buf, &frame)) {
      std::fprintf(stderr, "psync_submit: daemon closed the connection\n");
      ::close(fd);
      return 1;
    }
    std::printf("%s\n", frame.c_str());
    ::close(fd);
    return check_ok(frame) ? 0 : 1;
  }

  if (mode == Mode::kStatus || mode == Mode::kCancel) {
    std::uint64_t digest = 0;
    if (!parse_campaign_id(id_hex, &digest)) {
      std::fprintf(stderr, "psync_submit: --id wants 16 lowercase hex digits\n");
      return usage();
    }
    const std::string op = mode == Mode::kStatus ? "status" : "cancel";
    if (!send_line(fd,
                   "{\"op\":\"" + op +
                       "\",\"campaign\":" + json_string(campaign_id(digest)) +
                       "}") ||
        !read_line(fd, &buf, &frame)) {
      std::fprintf(stderr, "psync_submit: daemon closed the connection\n");
      ::close(fd);
      return 1;
    }
    std::printf("%s\n", frame.c_str());
    ::close(fd);
    return check_ok(frame) ? 0 : 1;
  }

  // Submit: read the INI, ship it, then wait on a results frame.
  std::ifstream in(config_path);
  if (!in) {
    std::fprintf(stderr, "psync_submit: cannot read %s\n", config_path.c_str());
    ::close(fd);
    return 1;
  }
  std::ostringstream ini;
  ini << in.rdbuf();

  std::string req = "{\"op\":\"submit\",\"config\":" + json_string(ini.str());
  if (threads > 0) req += ",\"threads\":" + std::to_string(threads);
  req += "}";
  if (!send_line(fd, req) || !read_line(fd, &buf, &frame)) {
    std::fprintf(stderr, "psync_submit: daemon closed the connection\n");
    ::close(fd);
    return 1;
  }
  if (!check_ok(frame)) {
    ::close(fd);
    return 1;
  }
  std::string id;
  std::uint64_t points = 0;
  bool attached = false;
  find_string_field(frame, "campaign", &id);
  find_u64_field(frame, "points", &points);
  find_bool_field(frame, "attached", &attached);
  std::fprintf(stderr, "psync_submit: campaign %s: %llu point(s)%s\n",
               id.c_str(), static_cast<unsigned long long>(points),
               attached ? " (attached to an existing campaign)" : "");

  if (subscribe) {
    if (!send_line(fd,
                   "{\"op\":\"subscribe\",\"campaign\":" + json_string(id) +
                       "}")) {
      std::fprintf(stderr, "psync_submit: daemon closed the connection\n");
      ::close(fd);
      return 1;
    }
    for (;;) {
      if (!read_line(fd, &buf, &frame)) {
        std::fprintf(stderr, "psync_submit: stream ended early\n");
        ::close(fd);
        return 1;
      }
      std::string event;
      if (!find_string_field(frame, "event", &event)) {
        // An error frame mid-stream (unknown campaign etc).
        check_ok(frame);
        ::close(fd);
        return 1;
      }
      std::fprintf(stderr, "%s\n", frame.c_str());
      if (event == "done") break;
    }
  }

  const std::string format = csv ? "csv" : "json";
  if (!send_line(fd,
                 "{\"op\":\"results\",\"campaign\":" + json_string(id) +
                     ",\"format\":\"" + format + "\",\"wait\":true}") ||
      !read_line(fd, &buf, &frame)) {
    std::fprintf(stderr, "psync_submit: daemon closed the connection\n");
    ::close(fd);
    return 1;
  }
  if (!check_ok(frame)) {
    ::close(fd);
    return 1;
  }
  std::string body;
  if (!find_string_field(frame, "body", &body)) {
    std::fprintf(stderr, "psync_submit: results frame lacks a body\n");
    ::close(fd);
    return 1;
  }
  // Byte-for-byte what psync_sim prints: sweep_json plus the trailing
  // newline, or sweep_csv verbatim (it carries its own newline).
  if (csv) {
    std::fputs(body.c_str(), stdout);
  } else {
    std::printf("%s\n", body.c_str());
  }
  std::uint64_t executed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t resumed = 0;
  find_u64_field(frame, "executed", &executed);
  find_u64_field(frame, "cache_hits", &cache_hits);
  find_u64_field(frame, "resumed", &resumed);
  std::fprintf(stderr,
               "psync_submit: campaign %s done: %llu executed, %llu from "
               "cache, %llu resumed\n",
               id.c_str(), static_cast<unsigned long long>(executed),
               static_cast<unsigned long long>(cache_hits),
               static_cast<unsigned long long>(resumed));
  ::close(fd);
  return 0;
}
