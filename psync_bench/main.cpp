// psync_bench: end-to-end and per-layer benchmark of the P-sync simulator
// stack. See README.md for the workload and metric catalog.
//
//   psync_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   psync_bench --all [--seed N] [--seconds S] [--json OUT]
//   psync_bench --all --seed 1 --smoke        (one pass each, digest check)
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, with the end-to-end metrics for an
// untraced run and the per-layer metrics for a traced one (--trace 1).
// Exit 0 when every output checked out, 1 when one was wrong, 2 on a usage
// error or when asked for timings from a sanitizer or unoptimised build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace psync_bench {
namespace {

struct Args {
  std::vector<std::string> workloads;
  BenchOptions opts;
  double seconds = 15.0;
  bool traced = false;
  std::string json_out;
  std::string trace_file;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--workload NAME | --all) [--seed N] [--seconds S]\n"
               "          [--trace 0|1] [--trace-file FILE] [--smoke]\n"
               "          [--json OUT] [--work-dir DIR]\n"
               "workloads:",
               argv0);
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::map<std::string, std::string> load_expected() {
  std::map<std::string, std::string> m;
  std::ifstream in(std::string(PSYNC_BENCH_DIR) + "/expected/seed1.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string hex;
    if (fields >> name >> hex) m[name] = hex;
  }
  return m;
}

/// End-to-end metrics of an untraced run, in BENCHMARK.json order. Every
/// gated time is in reference-host seconds: host seconds divided by the
/// slowdown the calibration measured next to it.
Metrics end_to_end(const RunData& d, const Calibrator& cal) {
  const double points_per_pass =
      d.pass_s.empty() ? 0.0 : d.points / static_cast<double>(d.pass_s.size());
  const double cpu_per_point = d.points > 0 ? d.cpu_s / d.points : 0.0;
  const double slow = median(d.slowdowns);
  Metrics m;
  m.push_back({"setup_s", median(d.setup_cal), "s"});
  m.push_back({"pass_cal.p50", median(d.pass_cal), "s"});
  m.push_back({"pass_cal.p75", quantile(d.pass_cal, 0.75), "s"});
  m.push_back({"cpu_cal_per_point", median(d.cpu_cal_per_point), "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  // Raw host numbers, printed for reading but not gated (README.md).
  m.push_back({"host.setup_s", median(d.setup_s), "s"});
  m.push_back({"host.pass_s.p50", median(d.pass_s), "s"});
  m.push_back({"host.points_per_s",
               median(d.pass_s) > 0 ? points_per_pass / median(d.pass_s) : 0.0, "1/s"});
  m.push_back({"host.cpu_s_per_point", cpu_per_point, "s"});
  m.push_back({"host.calib_ms.p50", median(cal.totals()) * 1e3, "ms"});
  m.push_back({"host.slowdown.p50", slow, "ratio"});
  m.push_back({"host.passes", static_cast<double>(d.pass_s.size()), "count"});
  return m;
}

/// Names the driver reads from an untraced run.
bool gated(const std::string& name) { return name.rfind("host.", 0) != 0; }

struct WorkloadReport {
  std::string name;
  RunData data;
  Metrics metrics;
  std::map<std::string, double> self_s;
};

int run(const Args& args) {
  const Fingerprint fp = fingerprint();
  std::printf("fingerprint %s\n", fp.json().c_str());
  if (!args.opts.smoke && fp.timing_unsafe()) {
    std::fprintf(stderr,
                 "psync_bench: refusing to report timings from a %s build "
                 "(sanitizer %s); rebuild with CMAKE_BUILD_TYPE=Release\n",
                 fp.optimized ? "sanitized" : "unoptimised", fp.sanitizer.c_str());
    return 2;
  }
  const auto expected = load_expected();
  std::vector<WorkloadReport> reports;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto& name : args.workloads) {
    auto w = make_workload(name);
    const int cores = std::min(w->cores(), std::max(1, fp.nproc));
    const CpuPin pin(cores);
    std::printf("%-14s pinned to cpus", name.c_str());
    for (const int c : pin.cpus()) std::printf(" %d", c);
    std::printf("\n");
    Calibrator cal(cores);
    Tracer tracer;
    RunContext ctx;
    ctx.opts = args.opts;
    ctx.seconds = args.seconds;
    ctx.traced = args.traced;
    ctx.cal = &cal;
    ctx.tracer = &tracer;
    if (!args.opts.smoke && cores > 1) spin_cores(cores, 2.0);
    WorkloadReport rep;
    rep.name = name;
    try {
      w->measure(ctx, &rep.data);
    } catch (const std::exception& e) {
      ++rep.data.failed;
      rep.data.errors.push_back(name + ": " + e.what());
      if (rep.data.attempted == 0) rep.data.attempted = 1;
    }
    if (rep.data.has_digest) {
      const std::string got = hex64(rep.data.digest);
      std::printf("digest %s seed %llu %s\n", name.c_str(),
                  static_cast<unsigned long long>(args.opts.seed), got.c_str());
      const auto it = expected.find(name);
      if (args.opts.seed == 1 && it != expected.end() && it->second != got) {
        ++rep.data.failed;
        rep.data.errors.push_back(name + ": digest " + got + " differs from expected " +
                                  it->second);
      }
    } else {
      ++rep.data.failed;
      rep.data.errors.push_back(name + ": produced no output to digest");
    }
    if (args.traced) {
      w->layer_metrics(ctx, rep.data, &rep.metrics);
      complete_layer_metrics(&rep.metrics);
      rep.self_s = tracer.self_times();
      const std::string path = args.trace_file.empty()
                                   ? args.opts.work_dir + "/trace_" + name + ".json"
                                   : (args.workloads.size() == 1
                                          ? args.trace_file
                                          : args.trace_file + "." + name + ".json");
      if (tracer.write_chrome(path)) {
        std::printf("trace %s %s (%zu spans)\n", name.c_str(), path.c_str(),
                    tracer.spans().size());
      }
    } else {
      rep.metrics = end_to_end(rep.data, cal);
    }
    {
      static const char* kParts[kCalParts] = {"fft", "chase_l2", "arena", "hash"};
      std::printf("%-14s calibration parts (median ms):", name.c_str());
      for (std::size_t p = 0; p < kCalParts; ++p) {
        std::vector<double> v;
        for (const auto& s : cal.samples()) v.push_back(s[p]);
        std::printf(" %s %.2f", kParts[p], median(v) * 1e3);
      }
      std::printf("\n");
    }
    for (const auto& e : rep.data.errors) std::printf("error %s\n", e.c_str());
    for (const auto& m : rep.metrics) {
      std::printf("%-14s %-36s %14.6g %s\n", name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const auto& [span, s] : rep.self_s) {
      std::printf("%-14s self %-31s %14.6g s\n", name.c_str(), span.c_str(), s);
    }
    std::fflush(stdout);
    attempted += rep.data.attempted;
    failed += rep.data.failed;
    if (rep.data.failed > 0) correct = false;
    reports.push_back(std::move(rep));
  }

  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    out << "{\"fingerprint\":" << fp.json() << ",\"seed\":" << args.opts.seed
        << ",\"seconds\":" << json_number(args.seconds)
        << ",\"traced\":" << (args.traced ? "true" : "false") << ",\"workloads\":{";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      out << (i ? "," : "") << "\"" << r.name << "\":{\"digest\":\"" << hex64(r.data.digest)
          << "\",\"attempted\":" << r.data.attempted << ",\"failed\":" << r.data.failed
          << ",\"errors\":[";
      for (std::size_t e = 0; e < r.data.errors.size(); ++e) {
        out << (e ? "," : "") << "\"" << json_escape(r.data.errors[e]) << "\"";
      }
      out << "],\"metrics\":{";
      for (std::size_t k = 0; k < r.metrics.size(); ++k) {
        const auto& m = r.metrics[k];
        out << (k ? "," : "") << "\"" << m.name << "\":{\"value\":" << json_number(m.value)
            << ",\"unit\":\"" << m.unit << "\"}";
      }
      out << "},\"self_s\":{";
      std::size_t k = 0;
      for (const auto& [span, s] : r.self_s) {
        out << (k++ ? "," : "") << "\"" << span << "\":" << json_number(s);
      }
      out << "}}";
    }
    out << "}}\n";
  }

  // Final line: one workload reports its metrics by name; several prefix
  // each name with the workload.
  std::ostringstream line;
  line << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":"
       << std::max<std::size_t>(1, attempted) << ",\"failed\":" << failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& r : reports) {
    for (const auto& m : r.metrics) {
      if (!args.traced && !gated(m.name)) continue;
      const std::string key = reports.size() == 1 ? m.name : r.name + "/" + m.name;
      line << (first ? "" : ",") << "\"" << key << "\":{\"value\":" << json_number(m.value)
           << ",\"unit\":\"" << m.unit << "\"}";
      first = false;
    }
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace psync_bench

int main(int argc, char** argv) {
  using namespace psync_bench;
  Args args;
  bool all = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workloads.push_back(value());
      } else if (a == "--all") {
        all = true;
      } else if (a == "--seed") {
        args.opts.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage(argv[0]);
        args.traced = v == "1";
      } else if (a == "--trace-file") {
        args.trace_file = value();
      } else if (a == "--smoke") {
        args.opts.smoke = true;
      } else if (a == "--json") {
        args.json_out = value();
      } else if (a == "--work-dir") {
        args.opts.work_dir = value();
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (all) args.workloads = workload_names();
  if (args.workloads.empty() || !(args.seconds > 0.0)) return usage(argv[0]);
  for (const auto& w : args.workloads) {
    if (!make_workload(w)) return usage(argv[0]);
  }
  if (args.opts.work_dir.empty()) {
    // Sockets live under here, and a Unix socket path must stay short:
    // prefer the path relative to the working directory.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(PSYNC_BENCH_BINARY_DIR) / "tmp";
    std::error_code ec;
    const fs::path rel = fs::relative(dir, fs::current_path(), ec);
    args.opts.work_dir =
        (!ec && !rel.empty() && rel.string().size() < dir.string().size()) ? rel.string()
                                                                           : dir.string();
  }
  std::filesystem::create_directories(args.opts.work_dir);
  return run(args);
}
