#include "psync/perf/bench_report.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "psync/common/check.hpp"

namespace psync::perf {
namespace {

void append_escaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

// --- minimal parser for the JSON bench_report_json emits ---------------

class Cursor {
 public:
  explicit Cursor(const std::string& text) : s_(text) {}

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  bool peek(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        out.push_back(e == 'n' ? '\n' : e);
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  double parse_number() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::stod(s_.substr(start, pos_ - start));
  }

  bool parse_bool() {
    skip_ws();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected bool");
    return false;
  }

  /// Skip any value (used for keys added by future schema versions).
  void skip_value() {
    skip_ws();
    if (peek('"')) {
      parse_string();
    } else if (eat('[')) {
      if (!eat(']')) {
        do {
          skip_value();
        } while (eat(','));
        expect(']');
      }
    } else if (eat('{')) {
      if (!eat('}')) {
        do {
          parse_string();
          expect(':');
          skip_value();
        } while (eat(','));
        expect('}');
      }
    } else if (peek('t') || peek('f')) {
      parse_bool();
    } else {
      parse_number();
    }
  }

  [[noreturn]] void fail(const std::string& what) {
    throw SimulationError("bench report parse error at offset " +
                          std::to_string(pos_) + ": " + what);
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

BenchEntry parse_entry(Cursor& cur) {
  BenchEntry e;
  cur.expect('{');
  if (!cur.eat('}')) {
    do {
      const std::string key = cur.parse_string();
      cur.expect(':');
      if (key == "name") {
        e.name = cur.parse_string();
      } else if (key == "wall_ms") {
        e.wall_ms = cur.parse_number();
      } else if (key == "min_iter_ms") {
        e.min_iter_ms = cur.parse_number();
      } else if (key == "iters") {
        e.iters = static_cast<std::uint64_t>(cur.parse_number());
      } else if (key == "events") {
        e.events = static_cast<std::uint64_t>(cur.parse_number());
      } else if (key == "minor_faults") {
        e.minor_faults = cur.parse_number();
      } else if (key == "note") {
        e.note = cur.parse_string();
      } else {
        cur.skip_value();  // per_iter_ms / events_per_sec are derived
      }
    } while (cur.eat(','));
    cur.expect('}');
  }
  if (e.name.empty()) cur.fail("benchmark entry without a name");
  return e;
}

}  // namespace

const BenchEntry* BenchReport::find(const std::string& name) const {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string bench_report_json(const BenchReport& report) {
  std::string out = "{\n";
  out += "  \"schema_version\": " + std::to_string(report.schema_version) +
         ",\n";
  out += std::string("  \"quick\": ") + (report.quick ? "true" : "false") +
         ",\n";
  out += "  \"benchmarks\": [";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const BenchEntry& e = report.entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_escaped(&out, e.name);
    out += ", \"wall_ms\": " + fmt_double(e.wall_ms);
    out += ", \"iters\": " + std::to_string(e.iters);
    out += ", \"per_iter_ms\": " + fmt_double(e.per_iter_ms());
    if (e.min_iter_ms > 0.0) {
      out += ", \"min_iter_ms\": " + fmt_double(e.min_iter_ms);
    }
    if (e.events > 0) {
      out += ", \"events\": " + std::to_string(e.events);
      out += ", \"events_per_sec\": " + fmt_double(e.events_per_sec());
    }
    out += ", \"minor_faults\": " + fmt_double(e.minor_faults);
    if (!e.note.empty()) {
      out += ", \"note\": ";
      append_escaped(&out, e.note);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

BenchReport parse_bench_report(const std::string& json) {
  BenchReport report;
  Cursor cur(json);
  cur.expect('{');
  if (!cur.eat('}')) {
    do {
      const std::string key = cur.parse_string();
      cur.expect(':');
      if (key == "schema_version") {
        report.schema_version = static_cast<int>(cur.parse_number());
      } else if (key == "quick") {
        report.quick = cur.parse_bool();
      } else if (key == "benchmarks") {
        cur.expect('[');
        if (!cur.eat(']')) {
          do {
            report.entries.push_back(parse_entry(cur));
          } while (cur.eat(','));
          cur.expect(']');
        }
      } else {
        cur.skip_value();
      }
    } while (cur.eat(','));
    cur.expect('}');
  }
  return report;
}

std::string BenchComparison::table() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-32s %14s %14s %9s\n", "benchmark",
                "baseline_ms", "current_ms", "change");
  out += buf;
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-32s %14.3f %14.3f %+8.1f%%%s\n",
                  r.name.c_str(), r.baseline_ms, r.current_ms, r.change_pct,
                  r.regressed ? "  REGRESSED" : "");
    out += buf;
  }
  for (const auto& name : missing) {
    std::snprintf(buf, sizeof(buf), "%-32s %14s (not re-run)\n", name.c_str(),
                  "-");
    out += buf;
  }
  return out;
}

BenchComparison compare_bench_reports(const BenchReport& baseline,
                                      const BenchReport& current,
                                      double max_regress_pct) {
  BenchComparison cmp;
  for (const auto& base : baseline.entries) {
    const BenchEntry* cur = current.find(base.name);
    if (cur == nullptr) {
      cmp.missing.push_back(base.name);
      continue;
    }
    BenchDelta d;
    d.name = base.name;
    d.baseline_ms = base.best_iter_ms();
    d.current_ms = cur->best_iter_ms();
    d.change_pct = d.baseline_ms > 0.0
                       ? 100.0 * (d.current_ms - d.baseline_ms) / d.baseline_ms
                       : 0.0;
    d.regressed = d.change_pct > max_regress_pct &&
                  d.current_ms - d.baseline_ms > kMinAbsDeltaMs;
    if (d.regressed) cmp.ok = false;
    cmp.rows.push_back(d);
  }
  return cmp;
}

}  // namespace psync::perf
