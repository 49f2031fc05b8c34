#include "psync/lintpass/policy.hpp"

#include <array>

namespace psync::lintpass {
namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

template <std::size_t N>
bool matches_any(const std::string& path,
                 const std::array<const char*, N>& prefixes) {
  for (const char* p : prefixes) {
    if (starts_with(path, p)) return true;
  }
  return false;
}

constexpr std::array<const char*, 4> kClockAllow = {
    "src/psync/perf/",             // stopwatch/bench timing is the point
    "src/psync/common/cancel.hpp", // watchdog deadline, never serialized
    "src/psync/dist/supervisor",   // the leader's real clock
    "src/psync/dist/worker",       // the link's real clock, heartbeat timer
};

constexpr std::array<const char*, 3> kSansIo = {
    "src/psync/dist/leader",  // the sweep leader's policy (LeaderIo)
    "src/psync/dist/link",    // the worker link's policy (LinkIo)
    "src/psync/serve/core",   // the campaign daemon's policy (ServeIo)
};

constexpr std::array<const char*, 6> kOrderSensitive = {
    "src/psync/driver/canonical",  // canonical JSON: byte-exact digests
    "src/psync/core/trace",        // event traces compared byte-for-byte
    "src/psync/common/journal",    // journal replay order is the contract
    "src/psync/common/json",       // every journal and protocol byte
    "src/psync/dist/merge",        // crash-identical merge, live and final
    "src/psync/serve/cache",       // content-addressed result index
};

constexpr std::array<const char*, 3> kAssertSensitive = {
    "src/psync/common/journal",
    "src/psync/dist/",
    "src/psync/serve/",
};

}  // namespace

bool Policy::scanned(const std::string& rel_path) const {
  return rel_path.find("tests/lint_fixtures/") == std::string::npos;
}

bool Policy::determinism_scope(const std::string& rel_path) const {
  return starts_with(rel_path, "src/") || starts_with(rel_path, "tools/");
}

bool Policy::clock_allowed(const std::string& rel_path) const {
  return matches_any(rel_path, kClockAllow);
}

bool Policy::order_sensitive(const std::string& rel_path) const {
  return matches_any(rel_path, kOrderSensitive);
}

bool Policy::assert_sensitive(const std::string& rel_path) const {
  return matches_any(rel_path, kAssertSensitive);
}

bool Policy::sans_io(const std::string& rel_path) const {
  return matches_any(rel_path, kSansIo);
}

bool Policy::layering_scope(const std::string& rel_path) const {
  return starts_with(rel_path, "src/psync/");
}

bool Policy::reach_root(const std::string& rel_path) const {
  return starts_with(rel_path, "tools/") || starts_with(rel_path, "bench/");
}

bool Policy::is_header(const std::string& rel_path) {
  return rel_path.size() >= 4 &&
         rel_path.compare(rel_path.size() - 4, 4, ".hpp") == 0;
}

}  // namespace psync::lintpass
