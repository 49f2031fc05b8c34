// Discrete-event simulation core.
//
// A deterministic event queue keyed by (time, sequence number): events at the
// same timestamp fire in insertion order. No simulator uses it today (the
// mesh fabric runs on calendar_queue.hpp); it is kept, with its unit tests,
// as the general-purpose queue for event-driven models.
// psync-lint: allow(dead-module): parked general-purpose queue; only its unit tests use it
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/common/units.hpp"

namespace psync {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulation time. Monotonically non-decreasing across run()/step().
  TimePs now() const { return now_; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Schedule `fn` to run at absolute time `when` (>= now()).
  void schedule_at(TimePs when, Handler fn);

  /// Schedule `fn` to run `delay` picoseconds from now (delay >= 0).
  void schedule_in(TimePs delay, Handler fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Run the earliest event. Returns false when the queue is empty.
  bool step();

  /// Run events until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Run events with timestamp <= `until` (inclusive); afterwards now() is
  /// max(now, until). Returns the number of events fired.
  std::uint64_t run_until(TimePs until);

  /// Total events fired over the queue's lifetime.
  std::uint64_t fired() const { return fired_; }

 private:
  struct Event {
    TimePs when;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace psync
