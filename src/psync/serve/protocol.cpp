#include "psync/serve/protocol.hpp"

#include <cstdio>

#include "psync/common/config.hpp"
#include "psync/driver/campaign.hpp"

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

namespace {

// A trimmed-down cousin of the journal-line parser (driver/campaign.cpp):
// requests are one-level objects with string / unsigned / bool values, so
// the cursor machinery stays minimal — and every malformed shape maps to
// a FrameError instead of a bool.
struct Cursor {
  const char* p;
  const char* end;
};

void skip_ws(Cursor* c) {
  while (c->p < c->end &&
         (*c->p == ' ' || *c->p == '\t' || *c->p == '\r' || *c->p == '\n')) {
    ++c->p;
  }
}

bool expect(Cursor* c, char ch) {
  skip_ws(c);
  if (c->p < c->end && *c->p == ch) {
    ++c->p;
    return true;
  }
  return false;
}

bool parse_string(Cursor* c, std::string* out) {
  if (!expect(c, '"')) return false;
  out->clear();
  while (c->p < c->end) {
    const char ch = *c->p++;
    if (ch == '"') return true;
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (c->p >= c->end) return false;
    const char esc = *c->p++;
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (c->end - c->p < 4) return false;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = *c->p++;
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

bool parse_u64(Cursor* c, std::uint64_t* out) {
  skip_ws(c);
  const auto v = take_decimal(&c->p, c->end);
  if (v) *out = *v;
  return v.has_value();
}

bool parse_bool(Cursor* c, bool* out) {
  skip_ws(c);
  const std::size_t left = static_cast<std::size_t>(c->end - c->p);
  if (left >= 4 && std::string(c->p, 4) == "true") {
    c->p += 4;
    *out = true;
    return true;
  }
  if (left >= 5 && std::string(c->p, 5) == "false") {
    c->p += 5;
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

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
  return '"' + driver::json_escape(s) + '"';
}

std::string error_frame(const std::string& code, const std::string& message) {
  return "{\"ok\":false,\"error\":" + json_string(code) +
         ",\"message\":" + json_string(message) + "}";
}

FrameError parse_request(const std::string& line, Request* out) {
  Cursor c{line.c_str(), line.c_str() + line.size()};
  skip_ws(&c);
  if (c.p == c.end) return FrameError::kEmpty;
  if (!expect(&c, '{')) return FrameError::kNotJson;

  Request req;
  bool saw_op = false;
  std::string op_name;
  std::string campaign_text;
  bool saw_campaign = false;

  if (!expect(&c, '}')) {
    while (true) {
      std::string key;
      if (!parse_string(&c, &key)) return FrameError::kBadString;
      if (!expect(&c, ':')) return FrameError::kNotJson;
      if (key == "op") {
        if (!parse_string(&c, &op_name)) return FrameError::kBadType;
        saw_op = true;
      } else if (key == "config") {
        if (!parse_string(&c, &req.config)) return FrameError::kBadType;
      } else if (key == "campaign") {
        if (!parse_string(&c, &campaign_text)) return FrameError::kBadType;
        saw_campaign = true;
      } else if (key == "format") {
        if (!parse_string(&c, &req.format)) return FrameError::kBadType;
      } else if (key == "wait") {
        if (!parse_bool(&c, &req.wait)) return FrameError::kBadType;
      } else if (key == "threads") {
        if (!parse_u64(&c, &req.threads)) return FrameError::kBadType;
      } else {
        return FrameError::kUnknownKey;
      }
      if (expect(&c, '}')) break;
      if (!expect(&c, ',')) return FrameError::kNotJson;
    }
  }
  skip_ws(&c);
  if (c.p != c.end) return FrameError::kTrailingGarbage;

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

// Scan the outermost object of `json` for `key` and leave the cursor at
// its value. Depth-aware so nested objects/arrays can't shadow a
// top-level field.
bool find_field(const std::string& json, const std::string& key,
                Cursor* out) {
  Cursor c{json.c_str(), json.c_str() + json.size()};
  if (!expect(&c, '{')) return false;
  if (expect(&c, '}')) return false;
  while (true) {
    std::string name;
    if (!parse_string(&c, &name)) return false;
    if (!expect(&c, ':')) return false;
    if (name == key) {
      skip_ws(&c);
      *out = c;
      return true;
    }
    // Skip the value: string-aware, depth-balanced.
    skip_ws(&c);
    if (c.p >= c.end) return false;
    if (*c.p == '"') {
      std::string ignored;
      if (!parse_string(&c, &ignored)) return false;
    } else if (*c.p == '{' || *c.p == '[') {
      int depth = 0;
      bool in_string = false;
      while (c.p < c.end) {
        const char ch = *c.p++;
        if (in_string) {
          if (ch == '\\') {
            if (c.p < c.end) ++c.p;
          } else if (ch == '"') {
            in_string = false;
          }
          continue;
        }
        if (ch == '"') in_string = true;
        else if (ch == '{' || ch == '[') ++depth;
        else if (ch == '}' || ch == ']') {
          --depth;
          if (depth == 0) break;
        }
      }
      if (c.p > c.end) return false;
    } else {
      while (c.p < c.end && *c.p != ',' && *c.p != '}') ++c.p;
    }
    if (expect(&c, '}')) return false;  // key not present
    if (!expect(&c, ',')) return false;
  }
}

}  // namespace

bool find_string_field(const std::string& json, const std::string& key,
                       std::string* out) {
  Cursor c{nullptr, nullptr};
  if (!find_field(json, key, &c)) return false;
  return parse_string(&c, out);
}

bool find_u64_field(const std::string& json, const std::string& key,
                    std::uint64_t* out) {
  Cursor c{nullptr, nullptr};
  if (!find_field(json, key, &c)) return false;
  return parse_u64(&c, out);
}

bool find_bool_field(const std::string& json, const std::string& key,
                     bool* out) {
  Cursor c{nullptr, nullptr};
  if (!find_field(json, key, &c)) return false;
  return parse_bool(&c, out);
}

}  // namespace psync::serve
