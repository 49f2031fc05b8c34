// Heartbeat protocol between shard workers and the sweep leader.
//
// Wire format: one short text line per message,
//
//   hb <shard> <kind> <points_done> <inflight>\n
//
// where <kind> is p (periodic progress), s (point start), or d (point
// done) and <inflight> is the global grid index of the point currently
// executing, or "-" when none is. Each line rides as one heartbeat
// frame's payload over the worker's socket link (transport.hpp).
//
// Liveness is "any traffic at all": the worker-side emitter runs a timer
// thread that sends a progress line every interval even while one point
// computes for a long time, so a silent *connected* channel means the
// process is wedged (deadlocked, stopped, or looping outside the sim),
// not merely busy — exactly the condition the leader answers with
// SIGKILL + restart. A silent *disconnected* worker is a different
// failure class: partitioned, not wedged.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include <condition_variable>

#include "psync/common/cancel.hpp"
#include "psync/driver/workload.hpp"

namespace psync::dist {

class SocketWorkerLink;  // transport.hpp

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

/// Worker-side emitter: implements the driver's PointObserver so the
/// Session announces point starts/completions, plus a timer thread that
/// keeps beating while a single point runs long.
///
/// The emitter writes through the worker's SocketWorkerLink
/// (transport.hpp), which owns the channel's failure story: it reconnects
/// on its own and only goes dead when the leader fences this worker's
/// epoch, which stops the timer — no point beating into the void. The
/// timer tick doubles as the link's I/O pump, so acks drain and
/// reconnects progress even while the sweep thread computes one long
/// point.
class HeartbeatEmitter final : public driver::PointObserver {
 public:
  /// Does not own `link`.
  HeartbeatEmitter(SocketWorkerLink* link, std::size_t shard,
                   double interval_ms);
  ~HeartbeatEmitter() override;
  HeartbeatEmitter(const HeartbeatEmitter&) = delete;
  HeartbeatEmitter& operator=(const HeartbeatEmitter&) = delete;

  void on_point_start(std::size_t index) override;
  void on_point_done(std::size_t index, driver::PointStatus status) override;

 private:
  void timer_loop();
  /// Write one line; requires mu_ held.
  void emit_locked(Heartbeat::Kind kind);

  SocketWorkerLink* const link_;
  const std::size_t shard_;
  const double interval_ms_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  bool link_dead_ = false;
  std::uint64_t done_ = 0;
  std::int64_t inflight_ = -1;
  std::thread timer_;
};

}  // namespace psync::dist
