#include "psync/dist/frame.hpp"

#include <string_view>

#include "psync/common/config.hpp"

namespace psync::dist {

bool frame_kind_valid(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kJournalAck);
}

std::string encode_frame(const Frame& frame) {
  std::string wire;
  wire.reserve(kFrameHeaderBytes + frame.payload.size());
  wire.push_back(static_cast<char>(kFrameMagic));
  wire.push_back(static_cast<char>(frame.kind));
  const auto len = static_cast<std::uint32_t>(frame.payload.size());
  wire.push_back(static_cast<char>(len & 0xFF));
  wire.push_back(static_cast<char>((len >> 8) & 0xFF));
  wire.push_back(static_cast<char>((len >> 16) & 0xFF));
  wire.push_back(static_cast<char>((len >> 24) & 0xFF));
  wire += frame.payload;
  return wire;
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  // Compact before growing: keeps the buffer bounded by one frame plus one
  // read, not by connection lifetime.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Result FrameDecoder::next(Frame* out) {
  if (corrupt_) return Result::kCorrupt;
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Result::kNeedMore;
  const auto* p = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  if (p[0] != kFrameMagic || !frame_kind_valid(p[1])) {
    corrupt_ = true;
    return Result::kCorrupt;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(p[2]) |
                            (static_cast<std::uint32_t>(p[3]) << 8) |
                            (static_cast<std::uint32_t>(p[4]) << 16) |
                            (static_cast<std::uint32_t>(p[5]) << 24);
  if (len > kMaxFramePayload) {
    corrupt_ = true;
    return Result::kCorrupt;
  }
  if (buf_.size() - pos_ < kFrameHeaderBytes + len) return Result::kNeedMore;
  out->kind = static_cast<FrameKind>(p[1]);
  out->payload.assign(buf_, pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  return Result::kFrame;
}

void FrameDecoder::reset() {
  buf_.clear();
  pos_ = 0;
  corrupt_ = false;
}

namespace {

/// Consume `lit` at *p; false (nothing consumed) when the bytes differ.
bool take_literal(const char** p, const char* end, std::string_view lit) {
  if (static_cast<std::size_t>(end - *p) < lit.size() ||
      std::string_view(*p, lit.size()) != lit) {
    return false;
  }
  *p += lit.size();
  return true;
}

}  // namespace

std::string hello_payload(const HelloClaim& claim) {
  return "shard " + std::to_string(claim.shard) + " epoch " +
         std::to_string(claim.epoch);
}

bool parse_hello_payload(const std::string& payload, HelloClaim* out) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  if (!take_literal(&p, end, "shard ")) return false;
  const auto shard = take_decimal(&p, end);
  if (!shard || !take_literal(&p, end, " epoch ")) return false;
  const auto epoch = take_decimal(&p, end);
  if (!epoch || p != end) return false;
  out->shard = static_cast<std::size_t>(*shard);
  out->epoch = *epoch;
  return true;
}

std::string journal_payload(std::size_t index, const std::string& line) {
  return std::to_string(index) + " " + line;
}

bool parse_journal_payload(const std::string& payload, std::size_t* index,
                           std::string* line) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  const auto idx = take_decimal(&p, end);
  if (!idx || !take_literal(&p, end, " ")) return false;
  *index = static_cast<std::size_t>(*idx);
  line->assign(p, end);
  return true;
}

std::string journal_ack_payload(std::size_t index) {
  return std::to_string(index);
}

bool parse_journal_ack_payload(const std::string& payload,
                               std::size_t* index) {
  const auto idx = parse_decimal(payload);
  if (!idx) return false;
  *index = static_cast<std::size_t>(*idx);
  return true;
}

bool hello_ack_fenced(const std::string& payload) {
  return payload.rfind("fenced", 0) == 0;
}

}  // namespace psync::dist
