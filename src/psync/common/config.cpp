#include "psync/common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "psync/common/check.hpp"

namespace psync {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

}  // namespace

IniConfig IniConfig::parse(const std::string& text) {
  IniConfig cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw SimulationError("IniConfig: malformed section at line " +
                              std::to_string(lineno));
      }
      section = trim(line.substr(1, line.size() - 2));
      if (!cfg.data_.count(section)) {
        cfg.data_[section] = {};
        cfg.section_order_.push_back(section);
        cfg.key_order_[section] = {};
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw SimulationError("IniConfig: expected 'key = value' at line " +
                            std::to_string(lineno));
    }
    if (section.empty()) {
      throw SimulationError("IniConfig: key outside any section at line " +
                            std::to_string(lineno));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw SimulationError("IniConfig: empty key at line " +
                            std::to_string(lineno));
    }
    auto& sec = cfg.data_[section];
    if (sec.count(key)) {
      throw SimulationError("IniConfig: duplicate key '" + key +
                            "' at line " + std::to_string(lineno));
    }
    sec[key] = value;
    cfg.key_order_[section].push_back(key);
  }
  return cfg;
}

IniConfig IniConfig::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SimulationError("IniConfig: cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

bool IniConfig::has_section(const std::string& section) const {
  return data_.count(section) > 0;
}

std::vector<std::string> IniConfig::sections() const { return section_order_; }

std::vector<std::string> IniConfig::keys(const std::string& section) const {
  const auto it = key_order_.find(section);
  return it != key_order_.end() ? it->second : std::vector<std::string>{};
}

std::optional<std::string> IniConfig::get(const std::string& section,
                                          const std::string& key) const {
  const auto it = data_.find(section);
  if (it == data_.end()) return std::nullopt;
  const auto kit = it->second.find(key);
  if (kit == it->second.end()) return std::nullopt;
  return kit->second;
}

std::string IniConfig::get_string(const std::string& section,
                                  const std::string& key,
                                  const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

bool IniConfig::get_bool(const std::string& section, const std::string& key,
                         bool fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  const auto out = parse_bool(*v);
  if (!out) {
    throw ConfigError("IniConfig: '" + section + "." + key +
                      "' is not a boolean: " + *v);
  }
  return *out;
}

// strtoll/strtod must consume the whole token and stay in range.
std::optional<std::int64_t> parse_int(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 0);
  if (text.empty() || end != text.data() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_double(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.data() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_decimal(std::string_view text) {
  if (text.empty() || (text.size() > 1 && text.front() == '0')) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    v = v * 10 + digit;
  }
  return v;
}

std::optional<std::uint64_t> take_decimal(const char** p, const char* end) {
  const char* q = *p;
  while (q < end && *q >= '0' && *q <= '9') ++q;
  const auto v = parse_decimal({*p, static_cast<std::size_t>(q - *p)});
  if (v) *p = q;
  return v;
}

std::optional<bool> parse_bool(const std::string& text) {
  const std::string low = lower(text);
  if (low == "true" || low == "yes" || low == "on" || low == "1") return true;
  if (low == "false" || low == "no" || low == "off" || low == "0") return false;
  return std::nullopt;
}

namespace {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Nearest candidate within an edit distance small enough to be a typo.
template <typename Range>
std::string suggest(const std::string& name, const Range& candidates) {
  std::string best;
  std::size_t best_d = name.size() / 2 + 2;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

// A value of a `type` key inside `range`; lists need at least one element
// and check each.
bool parses_as(ConfigSchema::Type type, ConfigRange range,
               const std::string& value) {
  using Type = ConfigSchema::Type;
  if (type == Type::kString) return true;
  if (type == Type::kBool) return parse_bool(value).has_value();
  const bool integer = type == Type::kInt || type == Type::kIntList;
  const auto number = [&](const std::string& tok) -> std::optional<double> {
    if (!integer) return parse_double(tok);
    const auto i = parse_int(tok);
    if (!i) return std::nullopt;
    return static_cast<double>(*i);
  };
  std::istringstream in(value);
  std::string tok;
  std::size_t count = 0;
  for (; in >> tok; ++count) {
    const auto v = number(tok);
    if (!v || !ConfigSchema::admits(type, range, *v)) return false;
  }
  const bool list = type == Type::kIntList || type == Type::kDoubleList;
  return list ? count > 0 : count == 1 && tok == value;
}

const char* type_name(ConfigSchema::Type type) {
  switch (type) {
    case ConfigSchema::Type::kString: return "string";
    case ConfigSchema::Type::kInt: return "integer";
    case ConfigSchema::Type::kDouble: return "number";
    case ConfigSchema::Type::kBool: return "boolean";
    case ConfigSchema::Type::kIntList: return "integer list";
    case ConfigSchema::Type::kDoubleList: return "number list";
  }
  return "?";
}

// Bounds print as integers when integral ("2^63-1" for the int64 ceiling).
std::string bound_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return v >= 9.2e18 ? "2^63-1" : buf;
}

}  // namespace

std::string ConfigDiagnostic::to_string() const {
  switch (kind) {
    case Kind::kUnknownSection:
      return "unknown section [" + section + "]: " + message;
    case Kind::kUnknownKey:
      return "unknown key '" + section + "." + key + "': " + message;
    case Kind::kBadValue:
      return "bad value for '" + section + "." + key + "': " + message;
  }
  return message;
}

bool ConfigSchema::admits(Type type, ConfigRange range, double value) {
  const bool integer = type == Type::kInt || type == Type::kIntList;
  if (integer && value != std::floor(value)) return false;
  return value >= range.lo && value <= range.hi;
}

std::string ConfigSchema::describe(Type type, ConfigRange range) {
  std::string out = type_name(type);
  if (std::isfinite(range.lo) || std::isfinite(range.hi)) {
    out += " in [" + bound_text(range.lo) + ", " + bound_text(range.hi) + "]";
  }
  return out;
}

ConfigSchema& ConfigSchema::key(const std::string& section,
                                const std::string& name, Type type,
                                ConfigRange range) {
  schema_[section][name] = Key{type, range};
  return *this;
}

std::vector<ConfigDiagnostic> ConfigSchema::validate(
    const IniConfig& cfg) const {
  std::vector<ConfigDiagnostic> out;
  std::vector<std::string> section_names;
  for (const auto& [name, keys] : schema_) section_names.push_back(name);

  for (const auto& sec : cfg.sections()) {
    const auto sit = schema_.find(sec);
    if (sit == schema_.end()) {
      ConfigDiagnostic d;
      d.kind = ConfigDiagnostic::Kind::kUnknownSection;
      d.section = sec;
      const auto near = suggest(sec, section_names);
      d.message = near.empty() ? "not recognized"
                               : "not recognized; did you mean [" + near + "]?";
      out.push_back(std::move(d));
      continue;
    }
    std::vector<std::string> key_names;
    for (const auto& [name, spec] : sit->second) key_names.push_back(name);
    for (const auto& key : cfg.keys(sec)) {
      const auto kit = sit->second.find(key);
      if (kit == sit->second.end()) {
        ConfigDiagnostic d;
        d.kind = ConfigDiagnostic::Kind::kUnknownKey;
        d.section = sec;
        d.key = key;
        const auto near = suggest(key, key_names);
        d.message = near.empty()
                        ? "not recognized"
                        : "not recognized; did you mean '" + near + "'?";
        out.push_back(std::move(d));
        continue;
      }
      const auto value = cfg.get(sec, key);
      const Key& spec = kit->second;
      if (value && !parses_as(spec.type, spec.range, *value)) {
        ConfigDiagnostic d;
        d.kind = ConfigDiagnostic::Kind::kBadValue;
        d.section = sec;
        d.key = key;
        d.message = "expected " + describe(spec.type, spec.range) +
                    ", got '" + *value + "'";
        out.push_back(std::move(d));
      }
    }
  }
  return out;
}

}  // namespace psync
