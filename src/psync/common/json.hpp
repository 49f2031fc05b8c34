// The one JSON reader and escaper of the host-side text formats: journal
// lines (driver/campaign.cpp), serve protocol frames (serve/protocol.cpp)
// and BENCH_psync.json (perf/bench_report.cpp). Each format keeps its own
// shape, number rendering and error mapping; the lexing rules live here
// only, so the three cannot drift apart.
#pragma once

#include <cstdint>
#include <string>

namespace psync::json {

/// Escape `s` for the inside of a JSON string literal: quote and backslash
/// are backslashed, \n \r \t take their short escapes, every other byte
/// below 0x20 becomes \u00xx, and all other bytes (UTF-8 included) pass
/// through verbatim. Cursor::read_string inverts it for every byte value.
std::string escape(const std::string& s);

/// A read position in one JSON text. `end` points at the text's NUL
/// terminator (std::string::c_str() supplies one; strtod relies on it).
/// Every read skips leading whitespace (space, tab, CR, LF), returns false
/// on malformed or truncated input and never throws; after a failure `p`
/// is wherever reading stopped.
struct Cursor {
  explicit Cursor(const std::string& text)
      : p(text.c_str()), end(text.c_str() + text.size()) {}
  explicit Cursor(std::string&&) = delete;  // would point into a temporary

  void skip_ws();
  /// Skip whitespace, then consume `ch` when it is the next byte.
  bool expect(char ch);
  /// Skip whitespace; true when no byte is left.
  bool at_end();

  /// A string literal with the full JSON escape set. \uXXXX decodes as
  /// UTF-8 (surrogate pairs are not combined); raw bytes pass through.
  bool read_string(std::string* out);
  /// A strict unsigned decimal (take_decimal, config.hpp): no sign, no
  /// leading zero, nothing past 2^64-1.
  bool read_u64(std::uint64_t* out);
  /// Any number strtod accepts.
  bool read_double(double* out);
  /// The literal true or false.
  bool read_bool(bool* out);
  /// One value of any type, verbatim: a string (escapes checked), an
  /// object or array (string-aware and depth-balanced; the inside is not
  /// otherwise checked) or a scalar token, which runs to the next ',', '}',
  /// ']' or whitespace. A null `out` skips the value.
  bool capture(std::string* out);

  const char* p;
  const char* end;
};

}  // namespace psync::json
