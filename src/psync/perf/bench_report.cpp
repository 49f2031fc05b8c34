#include "psync/perf/bench_report.hpp"

#include <cstdio>
#include <cstdlib>

#include "psync/common/check.hpp"
#include "psync/common/json.hpp"

namespace psync::perf {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

void append_string(std::string* out, const std::string& s) {
  *out += '"' + json::escape(s) + '"';
}

// Reads the JSON bench_report_json writes through the common cursor; any
// malformed shape is a SimulationError naming the offset where reading
// stopped.
class ReportReader {
 public:
  explicit ReportReader(const std::string& text) : text_(text), c_(text) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw SimulationError("bench report parse error at offset " +
                          std::to_string(c_.p - text_.c_str()) + ": " + what);
  }
  bool eat(char ch) { return c_.expect(ch); }
  void expect(char ch) {
    if (!c_.expect(ch)) fail(std::string("expected '") + ch + "'");
  }
  std::string string() {
    std::string s;
    if (!c_.read_string(&s)) fail("expected string");
    return s;
  }
  double number() {
    double v = 0.0;
    if (!c_.read_double(&v)) fail("expected number");
    return v;
  }
  std::uint64_t count() {
    std::uint64_t v = 0;
    if (!c_.read_u64(&v)) fail("expected unsigned integer");
    return v;
  }
  bool boolean() {
    bool v = false;
    if (!c_.read_bool(&v)) fail("expected bool");
    return v;
  }
  /// Skip any value (keys added by future schema versions).
  void skip() {
    if (!c_.capture(nullptr)) fail("expected value");
  }

 private:
  const std::string& text_;
  json::Cursor c_;
};

BenchEntry parse_entry(ReportReader& in) {
  BenchEntry e;
  in.expect('{');
  if (!in.eat('}')) {
    do {
      const std::string key = in.string();
      in.expect(':');
      if (key == "name") {
        e.name = in.string();
      } else if (key == "wall_ms") {
        e.wall_ms = in.number();
      } else if (key == "min_iter_ms") {
        e.min_iter_ms = in.number();
      } else if (key == "iters") {
        e.iters = in.count();
      } else if (key == "events") {
        e.events = in.count();
      } else if (key == "minor_faults") {
        e.minor_faults = in.number();
      } else if (key == "note") {
        e.note = in.string();
      } else {
        in.skip();  // per_iter_ms / events_per_sec are derived
      }
    } while (in.eat(','));
    in.expect('}');
  }
  if (e.name.empty()) in.fail("benchmark entry without a name");
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
    // The derived per_iter_ms and events_per_sec come from wall_ms as
    // written, so a report read back and rendered again is byte-identical.
    BenchEntry e = report.entries[i];
    const std::string wall = fmt_double(e.wall_ms);
    e.wall_ms = std::strtod(wall.c_str(), nullptr);
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_string(&out, e.name);
    out += ", \"wall_ms\": " + wall;
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
      append_string(&out, e.note);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

BenchReport parse_bench_report(const std::string& json) {
  BenchReport report;
  ReportReader in(json);
  in.expect('{');
  if (!in.eat('}')) {
    do {
      const std::string key = in.string();
      in.expect(':');
      if (key == "schema_version") {
        report.schema_version = static_cast<int>(in.count());
      } else if (key == "quick") {
        report.quick = in.boolean();
      } else if (key == "benchmarks") {
        in.expect('[');
        if (!in.eat(']')) {
          do {
            report.entries.push_back(parse_entry(in));
          } while (in.eat(','));
          in.expect(']');
        }
      } else {
        in.skip();
      }
    } while (in.eat(','));
    in.expect('}');
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
