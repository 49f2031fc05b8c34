// ProtectedChannel: the error-handling layer above the optical PHY that
// large photonic interconnect proposals assume and the paper leaves
// implicit. It closes the fault loop for SCA/SCA^-1 word streams:
//
//   * SECDED(72,64) + per-block CRC-32 framing (framing.hpp), with the
//     extra code slots surfaced so the machine can charge slot-exact
//     timing and photonic energy for them;
//   * head-node retry/replay — a block whose CRC fails, whose SECDED saw a
//     double error, or whose slots the collision checker flagged is
//     re-driven in fresh slots, with bounded retries and a per-retry
//     backoff gap;
//   * dead-wavelength failover — a stuck-at-0 column scan over an all-ones
//     training burst finds dead lanes; traffic is remapped onto spare
//     wavelengths, and when spares run out the word rate degrades to
//     ceil(64 / usable_lanes) slots per word rather than losing bits.
//
// Policies:
//   kOff          raw transport: faults land in the payload, no overhead;
//   kDetectOnly   framing + lane scan run and errors are counted, but
//                 nothing is corrected, remapped, or retried;
//   kCorrectRetry full recovery: correction, failover, bounded replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/reliability/fault_model.hpp"

namespace psync::reliability {

/// The lane scan found every wavelength dead and no spare can restore even
/// one: the channel cannot carry traffic, so the collective must fail-stop
/// rather than pretend to deliver. Derives from DivergenceError so the
/// driver's failure taxonomy files it under sim_diverged.
class LaneExhaustionError : public DivergenceError {
 public:
  using DivergenceError::DivergenceError;
};

enum class ReliabilityPolicy {
  kOff,
  kDetectOnly,
  kCorrectRetry,
};

/// Parse "off" | "detect" | "correct" (throws SimulationError otherwise).
ReliabilityPolicy policy_from_string(const std::string& s);

struct ReliabilityParams {
  ReliabilityPolicy policy = ReliabilityPolicy::kOff;
  /// Payload words per CRC block (one CRC slot + ceil((n+1)/8) check slots
  /// of framing overhead each).
  std::size_t block_words = 64;
  /// Bounded replay: give up on a block after this many re-drives.
  std::size_t max_retries = 4;
  /// Idle slots the head node waits before each replay (decode + turnaround).
  std::size_t retry_backoff_slots = 8;
  /// Spare wavelengths available for dead-lane failover.
  std::size_t spare_lanes = 4;
  /// All-ones training words driven for the stuck-at-0 column scan.
  std::size_t training_words = 16;

  void validate() const;  // throws SimulationError on nonsense
};

/// Recovery-side outcome counters (the tentpole's RetryReport).
struct RetryReport {
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_retried = 0;   // blocks needing >= 1 replay
  std::uint64_t retries = 0;          // replays issued in total
  std::uint64_t slots_replayed = 0;   // wire slots spent on replays
  std::uint64_t backoff_slots = 0;    // idle slots between replays
  std::uint64_t corrected_bits = 0;   // single-bit SECDED repairs
  std::uint64_t double_errors = 0;    // SECDED double-detects seen
  std::uint64_t crc_failures = 0;     // block CRC mismatches seen
  std::uint64_t detected_errors = 0;  // words flagged by syndrome/CRC
  /// Payload words still wrong after the policy ran out (ground truth).
  std::uint64_t residual_errors = 0;

  void merge(const RetryReport& o);
};

/// Lane-failover outcome of the training scan.
struct LaneReport {
  std::vector<std::uint32_t> dead_lanes;  // detected stuck-at-0 lanes
  std::size_t spares_used = 0;            // dead lanes remapped to spares
  std::size_t residual_dead = 0;          // dead lanes left unmapped
  /// Slots per 64-bit word after failover (1 = full rate; >1 = the word is
  /// serialized over the surviving lanes because spares ran out).
  std::size_t slots_per_word = 1;

  [[nodiscard]] bool degraded() const { return slots_per_word > 1; }
};

class ProtectedChannel {
 public:
  /// Construction runs the lane-training scan (unless the policy is kOff),
  /// consuming `params.training_words` slots of bus time that the caller
  /// should account once per session (calibration_slots()).
  ProtectedChannel(FaultModel fault, ReliabilityParams params);

  [[nodiscard]] const ReliabilityParams& params() const { return params_; }
  [[nodiscard]] const LaneReport& lanes() const { return lanes_; }
  [[nodiscard]] std::uint64_t calibration_slots() const {
    return calibration_slots_;
  }

  struct Transmission {
    /// Delivered payload words (post-policy; same length as the input).
    std::vector<std::uint64_t> words;
    std::uint64_t payload_slots = 0;
    /// Slots actually modulated: payload + code + replays, times the
    /// failover serialization factor.
    std::uint64_t wire_slots = 0;
    /// Words modulated (for per-bit energy accounting).
    std::uint64_t wire_words = 0;
    std::uint64_t backoff_slots = 0;  // idle slots between replays
    RetryReport retry;
    FaultReport fault;

    /// Extra bus time beyond the raw payload burst, in slots.
    [[nodiscard]] std::uint64_t overhead_slots() const {
      return wire_slots + backoff_slots - payload_slots;
    }
  };

  /// Push `payload` through the faulty link under the configured policy.
  /// `corrupted_slots` (optional) lists payload slot indices the caller's
  /// collision checker flagged; blocks containing them are re-driven even
  /// if the coding checks pass. `storage` becomes the result's `words`
  /// (contents replaced, capacity reused). Discarding the result discards
  /// the delivered words *and* the retry/energy accounting, so it is
  /// flagged.
  [[nodiscard]] Transmission transmit(
      const std::vector<std::uint64_t>& payload,
      const std::vector<std::int64_t>* corrupted_slots = nullptr,
      std::vector<std::uint64_t> storage = {});

 private:
  void calibrate();

  ReliabilityParams params_;
  FaultModel fault_;
  FaultStream stream_;
  LaneReport lanes_;
  std::uint64_t calibration_slots_ = 0;
};

}  // namespace psync::reliability
