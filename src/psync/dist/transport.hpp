// The leader<->worker transport: TCP carrying length-prefixed frames
// (frame.hpp). It is the only channel between a sweep leader and its
// workers, whether they run on the leader's host (loopback, ephemeral
// port) or on other machines (--listen/--advertise):
//
//   SocketWorkerLink  the worker's end: heartbeat lines (heartbeat.hpp)
//                     ride as heartbeat frames, and each completed
//                     point's journal record is shipped to the leader,
//                     which appends it to the local per-shard journal.
//                     Journal-remains-truth, and the merge (merge.hpp)
//                     stays crash-identical.
//
// Robustness lives here, worker-side:
//
//   * Reconnect with decorrelated-jitter backoff (backoff.hpp). A broken
//     connection is not a death sentence — the worker keeps computing and
//     keeps trying; completed records queue as unacked.
//   * At-least-once journal shipping: every record is retransmitted until
//     the leader acks it (on reconnect, and periodically against drops).
//     The leader dedups by index, so retransmission is idempotent.
//   * Lease-epoch fencing: every connection opens with a HELLO claiming
//     (shard, epoch). The leader issued that epoch for exactly one launch
//     and revokes it when it gives the shard away; a zombie worker
//     reconnecting after its partition healed is answered "fenced", its
//     link goes permanently dead, and it can never double-write a shard
//     someone else now owns.
//   * ChaosTransport (chaos.hpp) decorates the outbound frame path for
//     deterministic fault injection in tests and the dist smoke.
//
// Leader-side state (who owns which epoch) is EpochLedger (leader.hpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "psync/common/cancel.hpp"
#include "psync/dist/backoff.hpp"
#include "psync/dist/chaos.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/heartbeat.hpp"

namespace psync::dist {

struct SocketLinkOptions {
  std::string host;
  std::uint16_t port = 0;
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  /// Reconnect backoff band (decorrelated jitter) and its seed.
  double reconnect_base_ms = 20.0;
  double reconnect_cap_ms = 1000.0;
  std::uint64_t reconnect_seed = 1;
  /// Unacked journal records are retransmitted this often (drop defense).
  double resend_ms = 250.0;
  /// How long to wait for the leader's hello-ack before treating the
  /// connection attempt as failed.
  double handshake_timeout_ms = 2000.0;
  /// Seeded outbound fault injection (tests, smoke); seed 0 = off.
  ChaosOptions chaos;
};

/// What a worker process writes to. Thread-safe: the heartbeat timer
/// thread and the sweep thread both call in.
class SocketWorkerLink {
 public:
  /// Attempts the first connection immediately (failures just schedule a
  /// retry). `on_fenced` (may be nullptr) is cancelled when the leader
  /// refuses this epoch — the worker must stop, its shard belongs to
  /// someone else now.
  SocketWorkerLink(const SocketLinkOptions& opts, CancelToken* on_fenced);
  ~SocketWorkerLink();
  SocketWorkerLink(const SocketWorkerLink&) = delete;
  SocketWorkerLink& operator=(const SocketWorkerLink&) = delete;

  /// Emit one heartbeat. Returns false once the link is permanently dead
  /// (this epoch was fenced) — the worker should wind down. Disconnected
  /// is not dead: the reconnect loop keeps trying.
  bool send_heartbeat(const Heartbeat& hb);
  /// Queue one completed point's journal line and ship it.
  void send_journal(std::size_t index, const std::string& line);
  /// Permanently dead because the leader refused this worker's epoch.
  [[nodiscard]] bool fenced() const;
  /// Block until every queued journal record is acked or `timeout_ms`
  /// passes, pumping I/O and waking as soon as an ack arrives. True when
  /// the queue drained.
  bool flush(double timeout_ms);

  /// Injection accounting of the decorating ChaosTransport.
  [[nodiscard]] const ChaosTransport& chaos() const { return chaos_; }

 private:
  double now_ms() const;
  /// Reconnect / drain acks / retransmit / release chaos holds. The
  /// heartbeat timer thread calls this every interval, so the link makes
  /// progress even while the sweep thread computes one long point.
  void pump_locked(double now);
  bool ensure_connected_locked(double now);
  void drain_locked(double now);
  void transmit_locked(const Frame& frame, double now);
  void send_locked(const Frame& frame, double now);
  void disconnect_locked(double now);
  void fence_locked();

  SocketLinkOptions opts_;
  CancelToken* const on_fenced_;
  mutable std::mutex mu_;
  int fd_ = -1;
  FrameDecoder decoder_;
  ChaosTransport chaos_;
  DecorrelatedBackoff backoff_;
  std::chrono::steady_clock::time_point t0_;
  double next_connect_ms_ = 0.0;
  bool fenced_ = false;
  struct Pending {
    std::string line;
    double last_sent_ms = -1.0;  // < 0: never transmitted
  };
  std::map<std::size_t, Pending> unacked_;
};

// --- TCP plumbing ------------------------------------------------------

/// Bind + listen on host:port (port 0 = ephemeral; the chosen port comes
/// back through *actual_port). Returns the nonblocking listen fd; throws
/// SimulationError on failure.
int tcp_listen(const std::string& host, std::uint16_t port,
               std::uint16_t* actual_port);

/// Blocking connect with TCP_NODELAY; returns the fd or -1 (errno holds
/// the reason).
int tcp_connect(const std::string& host, std::uint16_t port);

/// Accept one connection from a listen fd; the accepted fd is nonblocking
/// with TCP_NODELAY (the leader's acks are small frames a Nagle delay
/// would hold back). Returns -1 with errno set when nothing is pending.
int tcp_accept(int listen_fd);

/// Read everything available on the nonblocking connection `fd` into
/// `decoder`. Returns false once the peer closed it or a read failed.
bool read_frames(int fd, FrameDecoder* decoder);

/// Send one whole frame on `fd`. When the socket buffer is full it waits
/// up to 100 ms for room; if that wait times out, `keep_waiting` waits
/// again and otherwise the send gives up. Returns false on giving up or a
/// hard error — the caller treats the connection as dropped.
bool send_frame(int fd, const Frame& frame, bool keep_waiting);

/// Parse "host:port" or bare "port" (host defaults to 127.0.0.1).
bool parse_host_port(const std::string& s, std::string* host,
                     std::uint16_t* port);

}  // namespace psync::dist
