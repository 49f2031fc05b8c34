// Heartbeat protocol between shard workers and the sweep leader.
//
// Wire format: one short text line per message,
//
//   hb <shard> <kind> <points_done> <inflight>\n
//
// where <kind> is p (periodic progress), s (point start), or d (point
// done) and <inflight> is the global grid index of the point currently
// executing, or "-" when none is. Each line rides as one heartbeat
// frame's payload over the worker's link (link.hpp).
//
// Liveness is "any traffic at all": the worker (dist/worker.cpp) runs a
// timer thread that sends a progress line every interval even while one
// point computes for a long time, so a silent *connected* channel means the
// process is wedged (deadlocked, stopped, or looping outside the sim),
// not merely busy — exactly the condition the leader answers with
// SIGKILL + restart. A silent *disconnected* worker is a different
// failure class: partitioned, not wedged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace psync::dist {

struct Heartbeat {
  enum class Kind { kProgress, kPointStart, kPointDone };

  std::size_t shard = 0;
  Kind kind = Kind::kProgress;
  /// Points this worker has completed (journaled) so far this launch.
  std::uint64_t points_done = 0;
  /// Global grid index currently executing, or -1 when idle.
  std::int64_t inflight = -1;
};

/// Render one wire line (no trailing newline).
std::string heartbeat_line(const Heartbeat& hb);

/// Parse one wire line; returns false (out untouched) on anything
/// malformed — a garbled payload is dropped, never trusted.
bool parse_heartbeat_line(const std::string& line, Heartbeat* out);

}  // namespace psync::dist
