// Minimal INI-style configuration parser for the psync_sim command-line
// experiment runner (tools/). Supports [sections], key = value pairs,
// '#'/';' comments, and typed accessors with defaults.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace psync {

class IniConfig {
 public:
  /// Parse from text; throws SimulationError with a line number on
  /// malformed input (garbage lines, keys outside any section, duplicate
  /// keys within a section).
  static IniConfig parse(const std::string& text);

  /// Parse from a file; throws SimulationError if unreadable.
  static IniConfig load(const std::string& path);

  bool has_section(const std::string& section) const;
  std::vector<std::string> sections() const;
  std::vector<std::string> keys(const std::string& section) const;

  /// Raw string lookup.
  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;

  /// Typed accessors; throw ConfigError on unparsable values.
  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback) const;
  bool get_bool(const std::string& section, const std::string& key,
                bool fallback) const;

 private:
  // section -> key -> value, insertion-ordered via auxiliary lists.
  std::map<std::string, std::map<std::string, std::string>> data_;
  std::vector<std::string> section_order_;
  std::map<std::string, std::vector<std::string>> key_order_;
};

/// Whole-token value parsers (typed keys read through these): nullopt
/// unless all of `text` parses. Integers take a base prefix, as strtoll
/// with base 0 does; booleans are true/yes/on/1 or false/no/off/0, any case.
std::optional<std::int64_t> parse_int(const std::string& text);
std::optional<double> parse_double(const std::string& text);
std::optional<bool> parse_bool(const std::string& text);

/// Strict unsigned decimal, the one integer rule of every count, index,
/// seed and digest the tools and wire formats read: ASCII digits only (no
/// sign, space or base prefix, no leading zero but "0" itself), the full
/// u64 range, nullopt on anything else or past 2^64-1.
std::optional<std::uint64_t> parse_decimal(std::string_view text);

/// parse_decimal over the digit run at `*p` (stopping at `end` or the
/// first non-digit), advancing `*p` past it on success — for the
/// cursor-style line parsers, which check what follows themselves.
std::optional<std::uint64_t> take_decimal(const char** p, const char* end);

/// One problem found while validating a config against a ConfigSchema.
struct ConfigDiagnostic {
  enum class Kind { kUnknownSection, kUnknownKey, kBadValue };
  Kind kind = Kind::kUnknownKey;
  std::string section;
  std::string key;      // empty for kUnknownSection
  std::string message;  // human-readable, includes did-you-mean suggestions

  std::string to_string() const;
};

/// Inclusive bounds on a numeric config key (on every element, for lists).
/// NaN is never inside; the default admits every other number.
struct ConfigRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// Declarative description of every section/key a tool understands, with
/// value types and ranges, so typos stop silently falling back to defaults:
/// validate() reports unknown sections, unknown keys (with a nearest-name
/// suggestion) and mistyped or out-of-range values as a diagnostics list
/// instead of throwing. Tools decide the severity (psync_sim warns by
/// default, fails under --strict).
class ConfigSchema {
 public:
  enum class Type { kString, kInt, kDouble, kBool, kIntList, kDoubleList };

  /// True when `value` may be one value (list element) of a `type` key
  /// bounded by `range`: inside it and, for integer types, integral.
  static bool admits(Type type, ConfigRange range, double value);
  /// What such a key accepts, e.g. "integer in [1, 16]" or "number".
  static std::string describe(Type type, ConfigRange range);

  /// Declare a key, its value type and, for numeric types, its range.
  ConfigSchema& key(const std::string& section, const std::string& name,
                    Type type, ConfigRange range = {});

  /// Every problem in `cfg`, in section/key insertion order.
  std::vector<ConfigDiagnostic> validate(const IniConfig& cfg) const;

 private:
  struct Key {
    Type type;
    ConfigRange range;
  };
  std::map<std::string, std::map<std::string, Key>> schema_;
};

}  // namespace psync
