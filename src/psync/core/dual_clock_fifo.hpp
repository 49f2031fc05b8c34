// Dual-clock FIFO separating a node's compute clock domain from the PSCAN
// photonic clock domain (paper Section III-A).
//
// For an SCA the compute core fills the FIFO at its own clock and the
// waveguide interface drains it on the received photonic clock; for an
// SCA^-1 the directions reverse. The simulator time-stamps every push/pop
// and enforces capacity, so machine models can prove their schedules never
// underrun the modulator or overrun the deserializer. No machine model
// drains through it yet; only its unit tests use it.
// psync-lint: allow(dead-module): parked Section III-A clock-crossing model; only its unit tests use it
#pragma once

#include <cstdint>
#include <deque>

#include "psync/common/units.hpp"
#include "psync/core/sca.hpp"

namespace psync::core {

class DualClockFifo {
 public:
  /// `capacity` in words; `min_domain_gap_ps` models the synchronizer
  /// latency: a word pushed at time t is only visible to pops at
  /// t + min_domain_gap_ps or later.
  explicit DualClockFifo(std::size_t capacity, TimePs min_domain_gap_ps = 0);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() >= capacity_; }

  /// Push `word` at absolute time `t`. Throws SimulationError on overflow
  /// or time regression within the push domain.
  void push(Word word, TimePs t);

  /// True when a pop at time `t` would succeed (non-empty and the front
  /// word has cleared the synchronizer).
  bool can_pop(TimePs t) const;

  /// Pop at absolute time `t`. Throws SimulationError on underflow (the
  /// modulator would have emitted garbage — exactly the failure a bad CP
  /// schedule causes) or time regression within the pop domain.
  Word pop(TimePs t);

  /// High-water mark of occupancy over the FIFO's lifetime.
  std::size_t max_occupancy() const { return max_occupancy_; }
  std::uint64_t total_pushed() const { return total_pushed_; }
  std::uint64_t total_popped() const { return total_popped_; }

 private:
  struct Item {
    Word word;
    TimePs visible_at;
  };

  std::size_t capacity_;
  TimePs gap_;
  std::deque<Item> items_;
  TimePs last_push_ = INT64_MIN;
  TimePs last_pop_ = INT64_MIN;
  std::size_t max_occupancy_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_popped_ = 0;
};

}  // namespace psync::core
