// ChaosTransport: deterministic, seeded fault injection at frame
// granularity for the leader<->worker transport.
//
// The decorator sits on a worker link's *outbound* path: every frame the
// link wants to transmit is offered to the injector, which may drop it,
// duplicate it, delay it, or hold it to reorder with the next one — and on
// a schedule, sever the connection entirely and refuse reconnects for a
// window (a network partition). All decisions come from one psync::Rng
// stream, so a given seed replays the identical fault sequence: the chaos
// tests and the dist-smoke CI job are reproducible, not flaky.
//
// The correctness claim under test is end-to-end: journal records are
// acked and retransmitted, the leader dedups, epochs fence zombies — so
// the merged sweep output stays byte-identical to a serial run no matter
// what this injector does. Heartbeats get no retransmission on purpose
// (they are liveness samples; dropping them IS the fault being modeled).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "psync/common/rng.hpp"
#include "psync/dist/frame.hpp"

namespace psync::dist {

struct ChaosOptions {
  /// Master switch: 0 disables every fault below (the default link).
  std::uint64_t seed = 0;
  /// Per-frame probabilities, each drawn independently in order
  /// drop -> duplicate -> reorder -> delay.
  double drop = 0.0;       // frame silently discarded
  double duplicate = 0.0;  // frame transmitted twice
  double reorder = 0.0;    // frame held, emitted after the next one
  double delay = 0.0;      // frame held for delay_ms
  double delay_ms = 20.0;
  /// Partition schedule: after this many offered frames (0 = never) the
  /// connection is severed and reconnects are refused for partition_ms.
  std::size_t partition_after = 0;
  double partition_ms = 0.0;
  /// Re-arm the partition every partition_after frames instead of firing
  /// once.
  bool partition_repeat = false;
};

class ChaosTransport {
 public:
  explicit ChaosTransport(const ChaosOptions& opts);

  [[nodiscard]] bool enabled() const { return opts_.seed != 0; }

  /// Run one outbound frame through the injector. Returns the frames to
  /// put on the wire *now* (possibly none, possibly several — a held
  /// reorder predecessor rides along with its successor). `now_ms` is any
  /// monotonic millisecond clock; only differences matter.
  std::vector<Frame> offer(const Frame& frame, double now_ms);

  /// Delayed frames whose release time has passed; call periodically.
  std::vector<Frame> due(double now_ms);

  /// True exactly once per armed partition: the caller must sever the
  /// connection now. Checking is what consumes the trigger.
  bool take_partition(double now_ms);
  /// While a partition heals, connection attempts must fail.
  [[nodiscard]] bool partitioned(double now_ms) const;

  // Injection accounting, for tests and the smoke harness's stderr.
  [[nodiscard]] std::size_t offered() const { return offered_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::size_t reordered() const { return reordered_; }
  [[nodiscard]] std::size_t delayed() const { return delayed_; }
  [[nodiscard]] std::size_t partitions() const { return partitions_; }

 private:
  struct Held {
    Frame frame;
    double release_ms = 0.0;
  };

  ChaosOptions opts_;
  Rng rng_;
  std::vector<Held> delayed_frames_;
  bool have_reorder_hold_ = false;
  Frame reorder_hold_;
  bool partition_armed_ = false;   // threshold crossed, not yet taken
  double partition_heal_ms_ = -1.0;
  std::size_t frames_since_partition_ = 0;
  std::size_t offered_ = 0;
  std::size_t dropped_ = 0;
  std::size_t duplicated_ = 0;
  std::size_t reordered_ = 0;
  std::size_t delayed_ = 0;
  std::size_t partitions_ = 0;
};

}  // namespace psync::dist
