// Wire protocol of the campaign service: line-delimited JSON over a local
// Unix-domain stream socket. One request object per line; the daemon
// answers with one response object per line ("subscribe" streams many).
//
// Requests:
//   {"op":"submit","config":"<INI text>"[,"threads":N]}
//   {"op":"status","campaign":"<16-hex id>"}
//   {"op":"results","campaign":"<id>"[,"format":"json"|"csv"][,"wait":b]}
//   {"op":"subscribe","campaign":"<id>"}
//   {"op":"cancel","campaign":"<id>"}
//   {"op":"shutdown"}
//
// Responses: {"ok":true,...} on success, {"ok":false,"error":"<code>",
// "message":"..."} on failure. A subscribe stream is a sequence of
// {"event":"point",...} frames terminated by one {"event":"done",...}.
//
// The campaign id on the wire is the spec's content digest
// (driver::spec_digest) rendered as 16 lowercase hex digits — the same
// value names the campaign's journal in the cache directory, so a client,
// the daemon and the on-disk store all key by content, never by
// submission order.
//
// The request parser reads frames with the journal's JSON codec
// (common/json.hpp) and is as strict: unknown keys, wrong value types,
// truncated frames and trailing garbage are each a typed FrameError, never
// a silent default — a malformed submission must not execute as something
// else.
#pragma once

#include <cstdint>
#include <string>

namespace psync::serve {

enum class Op {
  kSubmit,
  kStatus,
  kResults,
  kSubscribe,
  kCancel,
  kShutdown,
};

const char* to_string(Op op);

/// Everything that can be wrong with one request frame.
enum class FrameError {
  kNone,
  kEmpty,            // blank line
  kNotJson,          // frame is not a JSON object
  kBadString,        // unterminated or bad-escape string literal
  kBadValue,         // a value failed to parse (number/bool expected)
  kTrailingGarbage,  // bytes after the closing '}'
  kMissingOp,        // no "op" key
  kUnknownOp,        // "op" names no operation
  kUnknownKey,       // a key the protocol does not define
  kBadType,          // right key, wrong JSON type
  kMissingField,     // the op requires a field the frame lacks
  kBadCampaignId,    // campaign id is not 16 hex digits
};

const char* to_string(FrameError err);

/// One parsed request frame.
struct Request {
  Op op = Op::kStatus;
  std::string config;             // submit: the campaign's INI text
  std::uint64_t campaign = 0;     // parsed spec digest
  bool has_campaign = false;
  std::string format = "json";    // results: "json" | "csv"
  bool wait = true;               // results: block until the campaign ends
  std::uint64_t threads = 0;      // submit: per-campaign override (0 = keep)
};

/// Parse one request line. Returns kNone and fills `*out` on success;
/// `*out` is unspecified on failure.
FrameError parse_request(const std::string& line, Request* out);

/// The wire form of a campaign id: 16 lowercase hex digits of the spec
/// digest (zero-padded, no prefix).
std::string campaign_id(std::uint64_t digest);
/// Parse the form campaign_id produces; false on anything else.
bool parse_campaign_id(const std::string& s, std::uint64_t* out);

/// Escape + quote a string as a JSON literal (json::escape rules).
std::string json_string(const std::string& s);

/// One-line error response frame: {"ok":false,"error":code,"message":...}.
std::string error_frame(const std::string& code, const std::string& message);

// Top-level field extraction from a one-line JSON response — what thin
// clients (psync_submit, the smoke test, the unit tests) use instead of a
// JSON library. Depth-aware: only fields of the outermost object match.
// Return false when the key is absent or has a different type.
bool find_string_field(const std::string& json, const std::string& key,
                       std::string* out);
bool find_u64_field(const std::string& json, const std::string& key,
                    std::uint64_t* out);
bool find_bool_field(const std::string& json, const std::string& key,
                     bool* out);

}  // namespace psync::serve
