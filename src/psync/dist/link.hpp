// The worker's end of the leader<->worker link, with no I/O of its own.
// Every worker ships its heartbeats (heartbeat.hpp) and each completed
// point's journal record through one WorkerLinkCore; the leader appends
// the record to the per-shard journal it owns and acks it, so journal
// remains truth and the merge (merge.hpp) stays crash-identical.
//
// Robustness lives here, worker-side:
//
//   * Reconnect with decorrelated-jitter backoff (backoff.hpp) in
//     [kReconnectBaseMs, min(kReconnectCapMs, 3 * previous)]. A broken
//     connection is not a death sentence — the worker keeps computing and
//     keeps trying; completed records queue as unacked.
//   * At-least-once journal shipping: every record is retransmitted until
//     the leader acks it (all of them when a connection is accepted, and
//     each one kResendMs after it was last sent, against drops). The
//     leader dedups by index, so retransmission is idempotent.
//   * Lease-epoch fencing: every connection opens with a HELLO claiming
//     (shard, epoch), sent in the clear, and nothing else goes out until
//     the leader's hello-ack accepts it (or kHandshakeTimeoutMs passes and
//     the attempt counts as failed). The leader issued that epoch for
//     exactly one launch and revokes it when it gives the shard away; a
//     zombie worker reconnecting after its partition healed is answered
//     "fenced" — at the handshake or mid-stream — its link goes
//     permanently dead, its cancel token fires, and it can never
//     double-write a shard someone else now owns.
//   * ChaosTransport (chaos.hpp) decorates the outbound frame path for
//     deterministic fault injection in tests and the dist smoke.
//
// WorkerLinkCore sees the world only through LinkIo, mirroring the
// leader's LeaderIo: time arrives as a `double` millisecond argument,
// received frames and a dropped connection are method calls, and connect,
// send and close go out through the seam. dist/worker.cpp implements the
// seam with a TCP socket; tests/test_leader_sim.cpp implements it on the
// simulated connections of its seeded leader simulator. Like dist/leader*,
// the core includes no POSIX, clock or thread header (psync_lint's
// sans-io-include rule keeps it that way).
//
// Leader-side state (who owns which epoch) is EpochLedger (leader.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "psync/dist/backoff.hpp"
#include "psync/dist/chaos.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/worker.hpp"

namespace psync {
class CancelToken;  // common/cancel.hpp
}  // namespace psync

namespace psync::dist {

struct Heartbeat;  // heartbeat.hpp

/// First reconnect delay after a success, and the backoff band's cap.
inline constexpr double kReconnectBaseMs = 20.0;
inline constexpr double kReconnectCapMs = 1000.0;
/// An unacked journal record goes again this long after it was last sent.
inline constexpr double kResendMs = 250.0;
/// How long a connection waits for the leader's hello-ack before the
/// attempt counts as failed.
inline constexpr double kHandshakeTimeoutMs = 2000.0;

/// Everything the link does to the outside world: one connection to the
/// leader at a time.
class LinkIo {
 public:
  LinkIo() = default;
  virtual ~LinkIo() = default;
  LinkIo(const LinkIo&) = delete;
  LinkIo& operator=(const LinkIo&) = delete;

  /// Open a connection to the leader; false when none can be opened now.
  virtual bool connect() = 0;
  /// Send one whole frame on the open connection; false when it is broken.
  virtual bool send(const Frame& frame) = 0;
  /// Close the open connection; the seam reports nothing more for it.
  virtual void close() = 0;
};

/// The worker link's policy. Not thread-safe: the POSIX side serializes
/// every call under its own mutex.
class WorkerLinkCore {
 public:
  /// Shard, epoch and chaos come from `cfg`. `on_fenced` (may be nullptr)
  /// is cancelled when the leader refuses this epoch — the worker must
  /// stop, its shard belongs to someone else now. Connects on the first
  /// pump().
  WorkerLinkCore(const WorkerConfig& cfg, LinkIo* io, CancelToken* on_fenced);

  /// Dial when the backoff allows it and no chaos partition holds, give
  /// up on a handshake past its deadline, retransmit records unacked for
  /// kResendMs, and release chaos-delayed frames that came due.
  void pump(double now);
  /// A frame arrived on the open connection.
  void on_frame(const Frame& frame, double now);
  /// The open connection ended (EOF, a read error or framing desync).
  void on_closed(double now);

  /// Send one heartbeat when the connection is up; a disconnected link
  /// just loses it. False once the link is fenced.
  bool send_heartbeat(const Heartbeat& hb, double now);
  /// Queue one completed point's journal record until the leader acks it,
  /// and send it now when the connection is up.
  void send_journal(std::size_t index, const std::string& line, double now);

  /// A HELLO is out and its ack has not arrived.
  [[nodiscard]] bool handshaking() const { return state_ == State::kHello; }
  /// Permanently dead because the leader refused this worker's epoch.
  [[nodiscard]] bool fenced() const { return state_ == State::kFenced; }
  /// Every queued journal record is acked.
  [[nodiscard]] bool drained() const { return unacked_.empty(); }
  /// Injection accounting of the decorating ChaosTransport.
  [[nodiscard]] const ChaosTransport& chaos() const { return chaos_; }

 private:
  enum class State {
    kDown,    // no connection; dial at next_connect_ms_
    kHello,   // HELLO sent, awaiting the hello-ack
    kUp,      // accepted: journal and heartbeat frames flow
    kFenced,  // refused for good
  };
  struct Pending {
    std::string line;
    double last_sent_ms = -1.0;  // < 0: never transmitted
  };

  void accept(double now);
  void fence();
  /// Close the connection and schedule the next dial one backoff draw out.
  void drop(double now);
  /// Send through the chaos injector; sever the link when it partitions.
  void transmit(const Frame& frame, double now);
  void resend(std::size_t index, Pending& pending, double now);
  void send_raw(const Frame& frame, double now);

  const HelloClaim claim_;
  LinkIo* const io_;
  CancelToken* const on_fenced_;
  DecorrelatedBackoff backoff_;
  ChaosTransport chaos_;
  State state_ = State::kDown;
  double next_connect_ms_ = 0.0;
  double hello_deadline_ms_ = 0.0;
  std::map<std::size_t, Pending> unacked_;
};

}  // namespace psync::dist
