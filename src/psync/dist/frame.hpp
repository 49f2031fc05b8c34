// Length-prefixed binary framing for the leader<->worker transport.
//
// Wire format, little-endian:
//
//   magic(0xF5) | kind(u8) | payload_len(u32) | payload bytes
//
// Payloads are the *existing* text codecs — a heartbeat frame carries
// exactly one heartbeat.hpp wire line, a journal frame carries exactly one
// campaign.hpp journal line — so the transport adds delivery, not a
// second serialization of campaign state. Control frames (hello, acks) use
// the same space-separated text style.
//
// FrameDecoder is an incremental parser: feed() it whatever read(2)
// returned — one byte at a time if the kernel feels like it — and next()
// yields complete frames. A bad magic, unknown kind, or oversized length
// marks the stream corrupt permanently: framing desync on a byte stream is
// unrecoverable, the only safe answer is to drop the connection and let
// the reconnect handshake start clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace psync::dist {

inline constexpr unsigned char kFrameMagic = 0xF5;
inline constexpr std::size_t kFrameHeaderBytes = 6;
/// A journal line for one point is well under a megabyte; anything claiming
/// more is framing desync, not data.
inline constexpr std::size_t kMaxFramePayload = 8u << 20;

enum class FrameKind : std::uint8_t {
  kHello = 1,       // worker -> leader: "shard <id> epoch <e>" lease claim
  kHelloAck = 2,    // leader -> worker: "ok" | "fenced <reason>"
  kHeartbeat = 3,   // worker -> leader: one heartbeat.hpp text line
  kJournal = 4,     // worker -> leader: "<index> <journal line>"
  kJournalAck = 5,  // leader -> worker: "<index>" durably appended
};

[[nodiscard]] bool frame_kind_valid(std::uint8_t kind);

struct Frame {
  FrameKind kind = FrameKind::kHeartbeat;
  std::string payload;
};

/// Render one frame as wire bytes (header + payload).
[[nodiscard]] std::string encode_frame(const Frame& frame);

class FrameDecoder {
 public:
  enum class Result {
    kFrame,     // *out holds the next complete frame
    kNeedMore,  // the buffered prefix is an incomplete frame
    kCorrupt,   // framing broken (sticky): drop the connection
  };

  /// Append raw bytes off the wire.
  void feed(const char* data, std::size_t n);

  /// Extract the next complete frame. Call in a loop after each feed():
  /// one read may complete several frames.
  Result next(Frame* out);

  [[nodiscard]] bool corrupt() const { return corrupt_; }
  /// Bytes buffered but not yet consumed as frames.
  [[nodiscard]] std::size_t pending_bytes() const {
    return buf_.size() - pos_;
  }
  /// Forget all buffered bytes and the corrupt flag — a reconnected stream
  /// starts from a clean frame boundary.
  void reset();

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted opportunistically
  bool corrupt_ = false;
};

// --- control-frame payload codecs ------------------------------------

/// The lease claim a worker opens every connection with. `epoch` is the
/// fencing identity: the leader issued it for exactly one launch of one
/// assignment, and refuses any epoch it has since revoked.
struct HelloClaim {
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
};

[[nodiscard]] std::string hello_payload(const HelloClaim& claim);
[[nodiscard]] bool parse_hello_payload(const std::string& payload,
                                       HelloClaim* out);

/// Render/parse a journal frame: "<index> <journal line>". The index is
/// carried outside the JSON so the leader can ack and dedup without
/// parsing the record body first.
[[nodiscard]] std::string journal_payload(std::size_t index,
                                          const std::string& line);
[[nodiscard]] bool parse_journal_payload(const std::string& payload,
                                         std::size_t* index,
                                         std::string* line);

/// Render/parse a journal ack payload: the decimal index.
[[nodiscard]] std::string journal_ack_payload(std::size_t index);
[[nodiscard]] bool parse_journal_ack_payload(const std::string& payload,
                                             std::size_t* index);

inline constexpr const char* kHelloAckOk = "ok";
/// "fenced ..." prefix check for hello-ack payloads.
[[nodiscard]] bool hello_ack_fenced(const std::string& payload);

}  // namespace psync::dist
