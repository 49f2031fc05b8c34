#include "psync/dist/link.hpp"

#include "psync/common/cancel.hpp"
#include "psync/dist/heartbeat.hpp"

namespace psync::dist {

namespace {

/// The reconnect backoff seed of one launch: distinct across shards and
/// epochs, so one partition's survivors do not stampede back in lockstep.
std::uint64_t reconnect_seed(std::size_t shard, std::uint64_t epoch) {
  return 0x9E3779B97F4A7C15ULL ^ (epoch * 0x2545F4914F6CDD1DULL + 1) ^
         (static_cast<std::uint64_t>(shard) << 32);
}

}  // namespace

WorkerLinkCore::WorkerLinkCore(const WorkerConfig& cfg, LinkIo* io,
                               CancelToken* on_fenced)
    : claim_{cfg.shard, cfg.epoch},
      io_(io),
      on_fenced_(on_fenced),
      backoff_(kReconnectBaseMs, kReconnectCapMs,
               reconnect_seed(cfg.shard, cfg.epoch)),
      chaos_(cfg.chaos) {}

void WorkerLinkCore::pump(double now) {
  switch (state_) {
    case State::kFenced:
      return;
    case State::kDown:
      if (chaos_.partitioned(now) || now < next_connect_ms_) return;
      if (!io_->connect()) {
        next_connect_ms_ = now + backoff_.next_ms();
        return;
      }
      state_ = State::kHello;
      hello_deadline_ms_ = now + kHandshakeTimeoutMs;
      // In the clear: chaos applies to post-handshake frames only. A HELLO
      // that never arrives is indistinguishable from the connect failing,
      // which the partition injection already covers.
      if (!io_->send({FrameKind::kHello, hello_payload(claim_)})) drop(now);
      return;
    case State::kHello:
      if (now >= hello_deadline_ms_) drop(now);
      return;
    case State::kUp:
      break;
  }
  // Retransmit shipped-but-unacked records (a dropped frame, or a
  // reconnect that raced the ack). The leader dedups by index, so an ack
  // that was merely delayed costs one agreeing duplicate, nothing more.
  for (auto& [index, pending] : unacked_) {
    if (pending.last_sent_ms >= 0.0 && now - pending.last_sent_ms < kResendMs) {
      continue;
    }
    resend(index, pending, now);
    if (state_ != State::kUp) return;
  }
  for (const Frame& frame : chaos_.due(now)) {
    if (state_ != State::kUp) break;
    send_raw(frame, now);
  }
}

void WorkerLinkCore::on_frame(const Frame& frame, double now) {
  if (state_ == State::kHello) {
    if (frame.kind != FrameKind::kHelloAck) {
      drop(now);
    } else if (hello_ack_fenced(frame.payload)) {
      fence();
    } else {
      accept(now);
    }
    return;
  }
  if (state_ != State::kUp) return;
  switch (frame.kind) {
    case FrameKind::kJournalAck: {
      std::size_t index = 0;
      if (parse_journal_ack_payload(frame.payload, &index)) {
        unacked_.erase(index);
      }
      break;
    }
    case FrameKind::kHelloAck:
      // A late fence: the leader decided mid-stream this epoch is done.
      if (hello_ack_fenced(frame.payload)) fence();
      break;
    default:
      break;  // leader never sends other kinds; ignore
  }
}

void WorkerLinkCore::on_closed(double now) {
  if (state_ == State::kHello || state_ == State::kUp) drop(now);
}

bool WorkerLinkCore::send_heartbeat(const Heartbeat& hb, double now) {
  // Disconnected is not dead: the reconnect loop keeps trying, and a
  // missed heartbeat during an outage is exactly what the leader's
  // connection-loss taxonomy is for.
  if (state_ == State::kUp) {
    transmit({FrameKind::kHeartbeat, heartbeat_line(hb)}, now);
  }
  return !fenced();
}

void WorkerLinkCore::send_journal(std::size_t index, const std::string& line,
                                  double now) {
  if (fenced()) return;
  Pending& pending = unacked_[index] = Pending{line, -1.0};
  if (state_ == State::kUp) resend(index, pending, now);
}

void WorkerLinkCore::accept(double now) {
  state_ = State::kUp;
  backoff_.reset();
  next_connect_ms_ = 0.0;
  // Everything unacked goes again right away — the previous connection
  // may have died with records in flight.
  for (auto& [index, pending] : unacked_) {
    resend(index, pending, now);
    if (state_ != State::kUp) return;
  }
}

void WorkerLinkCore::fence() {
  io_->close();
  state_ = State::kFenced;
  if (on_fenced_ != nullptr) on_fenced_->cancel();
}

void WorkerLinkCore::drop(double now) {
  io_->close();
  state_ = State::kDown;
  next_connect_ms_ = now + backoff_.next_ms();
}

void WorkerLinkCore::transmit(const Frame& frame, double now) {
  for (const Frame& out : chaos_.offer(frame, now)) {
    if (state_ != State::kUp) break;
    send_raw(out, now);
  }
  if (chaos_.take_partition(now) && state_ == State::kUp) drop(now);
}

void WorkerLinkCore::resend(std::size_t index, Pending& pending, double now) {
  transmit({FrameKind::kJournal, journal_payload(index, pending.line)}, now);
  pending.last_sent_ms = now;
}

void WorkerLinkCore::send_raw(const Frame& frame, double now) {
  if (!io_->send(frame)) drop(now);
}

}  // namespace psync::dist
