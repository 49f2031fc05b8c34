#include "psync/common/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "psync/common/config.hpp"

namespace psync::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char raw : s) {
    const unsigned char ch = static_cast<unsigned char>(raw);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (ch < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(raw);
        }
    }
  }
  return out;
}

namespace {

bool is_ws(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n';
}

int hex_value(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

// The escaper only emits \u00XX for control bytes; decode any BMP point
// as UTF-8.
void append_utf8(unsigned code, std::string* out) {
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
}

}  // namespace

void Cursor::skip_ws() {
  while (p < end && is_ws(*p)) ++p;
}

bool Cursor::expect(char ch) {
  skip_ws();
  if (p < end && *p == ch) {
    ++p;
    return true;
  }
  return false;
}

bool Cursor::at_end() {
  skip_ws();
  return p == end;
}

bool Cursor::read_string(std::string* out) {
  if (!expect('"')) return false;
  out->clear();
  while (p < end) {
    const char ch = *p++;
    if (ch == '"') return true;
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (p >= end) return false;
    switch (*p++) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (end - p < 4) return false;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const int digit = hex_value(*p++);
          if (digit < 0) return false;
          code = (code << 4) | static_cast<unsigned>(digit);
        }
        append_utf8(code, out);
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

bool Cursor::read_u64(std::uint64_t* out) {
  skip_ws();
  const auto v = take_decimal(&p, end);
  if (v) *out = *v;
  return v.has_value();
}

bool Cursor::read_double(double* out) {
  skip_ws();
  char* stop = nullptr;
  const double v = std::strtod(p, &stop);
  if (stop == p || stop > end) return false;
  p = stop;
  *out = v;
  return true;
}

bool Cursor::read_bool(bool* out) {
  skip_ws();
  const auto left = static_cast<std::size_t>(end - p);
  if (left >= 4 && std::memcmp(p, "true", 4) == 0) {
    p += 4;
    *out = true;
    return true;
  }
  if (left >= 5 && std::memcmp(p, "false", 5) == 0) {
    p += 5;
    *out = false;
    return true;
  }
  return false;
}

bool Cursor::capture(std::string* out) {
  skip_ws();
  if (p == end) return false;
  const char* start = p;
  if (*p == '"') {
    std::string ignored;
    if (!read_string(&ignored)) return false;
  } else if (*p == '{' || *p == '[') {
    int depth = 0;
    bool in_string = false;
    do {
      if (p == end) return false;  // unbalanced: truncated
      const char ch = *p++;
      if (in_string) {
        if (ch == '\\' && p < end) {
          ++p;
        } else if (ch == '"') {
          in_string = false;
        }
      } else if (ch == '"') {
        in_string = true;
      } else if (ch == '{' || ch == '[') {
        ++depth;
      } else if (ch == '}' || ch == ']') {
        --depth;
      }
    } while (depth > 0);
  } else {
    while (p < end && *p != ',' && *p != '}' && *p != ']' && !is_ws(*p)) ++p;
    if (p == start) return false;
  }
  if (out != nullptr) out->assign(start, static_cast<std::size_t>(p - start));
  return true;
}

}  // namespace psync::json
