#include "psync/serve/protocol.hpp"

#include <cstdio>

#include "psync/common/json.hpp"

namespace psync::serve {

const char* to_string(Op op) {
  switch (op) {
    case Op::kSubmit: return "submit";
    case Op::kStatus: return "status";
    case Op::kResults: return "results";
    case Op::kSubscribe: return "subscribe";
    case Op::kCancel: return "cancel";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

const char* to_string(FrameError err) {
  switch (err) {
    case FrameError::kNone: return "none";
    case FrameError::kEmpty: return "empty_frame";
    case FrameError::kNotJson: return "not_json";
    case FrameError::kBadString: return "bad_string";
    case FrameError::kBadValue: return "bad_value";
    case FrameError::kTrailingGarbage: return "trailing_garbage";
    case FrameError::kMissingOp: return "missing_op";
    case FrameError::kUnknownOp: return "unknown_op";
    case FrameError::kUnknownKey: return "unknown_key";
    case FrameError::kBadType: return "bad_type";
    case FrameError::kMissingField: return "missing_field";
    case FrameError::kBadCampaignId: return "bad_campaign_id";
  }
  return "?";
}

std::string campaign_id(std::uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

bool parse_campaign_id(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char ch : s) {
    v <<= 4;
    if (ch >= '0' && ch <= '9') {
      v |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      v |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else {
      return false;  // uppercase deliberately rejected: one canonical form
    }
  }
  *out = v;
  return true;
}

std::string json_string(const std::string& s) {
  return '"' + json::escape(s) + '"';
}

std::string error_frame(const std::string& code, const std::string& message) {
  return "{\"ok\":false,\"error\":" + json_string(code) +
         ",\"message\":" + json_string(message) + "}";
}

FrameError parse_request(const std::string& line, Request* out) {
  json::Cursor c(line);
  if (c.at_end()) return FrameError::kEmpty;
  if (!c.expect('{')) return FrameError::kNotJson;

  Request req;
  bool saw_op = false;
  std::string op_name;
  std::string campaign_text;
  bool saw_campaign = false;

  if (!c.expect('}')) {
    while (true) {
      std::string key;
      if (!c.read_string(&key)) return FrameError::kBadString;
      if (!c.expect(':')) return FrameError::kNotJson;
      if (key == "op") {
        if (!c.read_string(&op_name)) return FrameError::kBadType;
        saw_op = true;
      } else if (key == "config") {
        if (!c.read_string(&req.config)) return FrameError::kBadType;
      } else if (key == "campaign") {
        if (!c.read_string(&campaign_text)) return FrameError::kBadType;
        saw_campaign = true;
      } else if (key == "format") {
        if (!c.read_string(&req.format)) return FrameError::kBadType;
      } else if (key == "wait") {
        if (!c.read_bool(&req.wait)) return FrameError::kBadType;
      } else if (key == "threads") {
        if (!c.read_u64(&req.threads)) return FrameError::kBadType;
      } else {
        return FrameError::kUnknownKey;
      }
      if (c.expect('}')) break;
      if (!c.expect(',')) return FrameError::kNotJson;
    }
  }
  if (!c.at_end()) return FrameError::kTrailingGarbage;

  if (!saw_op) return FrameError::kMissingOp;
  if (op_name == "submit") {
    req.op = Op::kSubmit;
  } else if (op_name == "status") {
    req.op = Op::kStatus;
  } else if (op_name == "results") {
    req.op = Op::kResults;
  } else if (op_name == "subscribe") {
    req.op = Op::kSubscribe;
  } else if (op_name == "cancel") {
    req.op = Op::kCancel;
  } else if (op_name == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    return FrameError::kUnknownOp;
  }

  if (req.op == Op::kSubmit && req.config.empty()) {
    return FrameError::kMissingField;
  }
  const bool needs_campaign = req.op == Op::kStatus ||
                              req.op == Op::kResults ||
                              req.op == Op::kSubscribe ||
                              req.op == Op::kCancel;
  if (needs_campaign) {
    if (!saw_campaign) return FrameError::kMissingField;
    if (!parse_campaign_id(campaign_text, &req.campaign)) {
      return FrameError::kBadCampaignId;
    }
    req.has_campaign = true;
  }
  if (req.op == Op::kResults && req.format != "json" &&
      req.format != "csv") {
    return FrameError::kBadValue;
  }

  *out = req;
  return FrameError::kNone;
}

namespace {

// Scan the outermost object of the cursor's text for `key` and leave the
// cursor at its value. Depth-aware so nested objects/arrays can't shadow
// a top-level field.
bool find_field(const std::string& key, json::Cursor* c) {
  if (!c->expect('{') || c->expect('}')) return false;
  while (true) {
    std::string name;
    if (!c->read_string(&name) || !c->expect(':')) return false;
    if (name == key) return true;
    if (!c->capture(nullptr)) return false;
    if (c->expect('}')) return false;  // key not present
    if (!c->expect(',')) return false;
  }
}

}  // namespace

bool find_string_field(const std::string& text, const std::string& key,
                       std::string* out) {
  json::Cursor c(text);
  return find_field(key, &c) && c.read_string(out);
}

bool find_u64_field(const std::string& text, const std::string& key,
                    std::uint64_t* out) {
  json::Cursor c(text);
  return find_field(key, &c) && c.read_u64(out);
}

bool find_bool_field(const std::string& text, const std::string& key,
                     bool* out) {
  json::Cursor c(text);
  return find_field(key, &c) && c.read_bool(out);
}

}  // namespace psync::serve
