// psync_sim — config-driven experiment runner over the driver subsystem.
//
// An INI file describes one ExperimentSpec (workload kind + machine params
// + sweep axes); the driver expands the sweep grid and executes it on a
// thread pool (`threads` under [experiment], or --threads). Results are
// identical regardless of thread count. `kind` under [experiment] names
// the workload (fft2d | fft1d | transpose | pipeline | mesh | reliability
// | degradation_sweep | fig11 | fig13, plus the legacy spellings sweep and
// reliability_sweep); [machine], [mesh], [fault], [reliability] and
// [guard] set parameters; every line of a [sweep] section is one axis of a
// cartesian grid. docs/configuration.md lists every key with its type,
// range, default and whether it is a sweep knob.
//
// Configs are validated against the full key schema: unknown sections or
// keys are reported (with did-you-mean suggestions) as warnings, or as
// hard errors under --strict / `strict = true`. A mistyped or out-of-range
// value is always an error naming the key (exit 1; exit 2 under --strict).
//
// Usage:
//   psync_sim [--strict] [--threads N] [--json | --csv] [--profile]
//             [--journal PATH | --resume PATH] [--timeout-ms X]
//             [--retries N] [--workers N] [--heartbeat-ms X]
//             [--listen [HOST:]PORT [--advertise HOST]] [chaos flags]
//             <config.ini>
//   psync_sim --worker-shard A:B --connect HOST:PORT --worker-epoch E
//             --worker-id N [--heartbeat-ms X] [chaos flags] <config.ini>
//   psync_sim --demo          # print a sample config and exit
//   psync_sim --list          # list registered workload kinds
//
// Crash-safe campaigns: --journal appends every finished point to an
// fsync'd JSONL checkpoint (also `journal = PATH` under [experiment]);
// --resume PATH skips the points already in that journal and reconstitutes
// them, rendering byte-identical output to an uninterrupted run. Failed or
// quarantined points are reported in the campaign summary (stderr) and in
// the JSON/CSV status columns.
//
// Distributed sweeps: --workers N shards the grid across N worker
// *processes* supervised by this one (src/psync/dist): per-shard fsync'd
// journals, heartbeat liveness (--heartbeat-ms, default 100), automatic
// restart-with-backoff of crashed or wedged workers, work stealing from
// stragglers, and a final merge that renders byte-identical output to a
// single-process run — see docs/robustness.md. Local workers are forked
// children that run the leader's own validated spec, so no worker re-reads
// a config that may have changed on disk. --journal doubles as the
// shard-journal base path (default: a fresh mkdtemp directory under /tmp,
// removed after the merge).
//
// Workers always dial the leader over TCP: heartbeats and per-point
// journal records travel as length-prefixed frames, the leader appends
// records to the local shard journals (fsync before ack) and fences
// zombie workers by lease epoch. Without --listen the leader binds
// 127.0.0.1 on an ephemeral port. --listen [HOST:]PORT (PORT 0 =
// ephemeral) picks the bind address for remote workers, and --advertise
// HOST is the address workers are told to dial when it differs from the
// bind address (two-host runs; see EXPERIMENTS.md). A worker started by
// hand builds its spec from the same config and flags and connects with
// `psync_sim --worker-shard A:B --connect HOST:PORT --worker-epoch E
// --worker-id N <config.ini>`; N names the shard whose lease E it holds.
//
// Network chaos (tests and the dist CI smoke): --chaos-seed S arms a
// deterministic frame-level fault injector on every worker's link
// (per-shard derived seeds); --chaos-drop/--chaos-dup/--chaos-reorder/
// --chaos-delay set per-frame probabilities, --chaos-delay-ms the hold
// time, and --chaos-partition-after N/--chaos-partition-ms T sever the
// connection after N frames for T ms (with --chaos-partition-repeat
// re-arming it). The merged output must stay byte-identical to a serial
// run under any of this — that is the property the flags exist to test.
//
// Graceful shutdown: SIGTERM or SIGINT cancels the sweep cooperatively —
// no new point starts, in-flight points abandon at their next cycle-batch
// boundary, every journal tail stays durable (resumable) — and the tool
// exits with code 4.
//
// Exit codes: 0 success; 1 config/journal error or every point failed;
// 2 usage or strict-mode config problems; 3 --strict with any failed or
// quarantined point; 4 cancelled by SIGTERM/SIGINT (journal resumable).
//
// --profile prints a host wall-clock breakdown (config parse / sweep run /
// render, plus per-sweep-point cost) to stderr; simulation results are
// unaffected.
#include <signal.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "psync/common/config.hpp"
#include "psync/common/table.hpp"
#include "psync/core/trace.hpp"
#include "psync/dist/supervisor.hpp"
#include "psync/dist/worker.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/perf/stopwatch.hpp"

namespace {

using namespace psync;

constexpr const char* kDemo = R"([experiment]
kind = fft2d
threads = 1

[machine]
processors = 16
rows = 64
cols = 64
blocks = 4
waveguide_gbps = 320

[mesh]
grid = 4
t_p = 1
elements_per_packet = 32
virtual_channels = 1
)";

void print_phase_table(const std::vector<core::Phase>& phases) {
  Table t({"phase", "start (us)", "duration (us)"});
  for (const auto& ph : phases) {
    t.row().add(ph.name).add(ph.start_ns * 1e-3, 2).add(ph.duration_ns() * 1e-3,
                                                        2);
  }
  std::printf("%s", t.to_string().c_str());
}

void print_psync(const core::PsyncRunReport& rep) {
  print_phase_table(rep.phases);
  std::printf(
      "total %.2f us | efficiency %.1f%% | %.2f GFLOPS | energy %.1f nJ "
      "(%.1f comm + %.1f compute) | err %.2e\n",
      rep.total_ns * 1e-3, rep.compute_efficiency * 100.0, rep.gflops,
      rep.total_energy_pj() * 1e-3, rep.comm_energy_pj * 1e-3,
      rep.compute_energy_pj * 1e-3, rep.max_error_vs_reference);
  if (rep.fault.words_corrupted > 0 || rep.retry.blocks_total > 0 ||
      !rep.lanes.dead_lanes.empty()) {
    std::printf(
        "faults: %llu/%llu words corrupted (%llu bits flipped, %llu "
        "silenced)\n",
        static_cast<unsigned long long>(rep.fault.words_corrupted),
        static_cast<unsigned long long>(rep.fault.words_total),
        static_cast<unsigned long long>(rep.fault.bits_flipped),
        static_cast<unsigned long long>(rep.fault.bits_silenced));
    std::printf(
        "recovery: %llu/%llu blocks retried (%llu retries, %llu slots "
        "replayed) | %llu bits corrected | %llu detected | %llu residual\n",
        static_cast<unsigned long long>(rep.retry.blocks_retried),
        static_cast<unsigned long long>(rep.retry.blocks_total),
        static_cast<unsigned long long>(rep.retry.retries),
        static_cast<unsigned long long>(rep.retry.slots_replayed),
        static_cast<unsigned long long>(rep.retry.corrected_bits),
        static_cast<unsigned long long>(rep.retry.detected_errors),
        static_cast<unsigned long long>(rep.retry.residual_errors));
    std::printf(
        "lanes: %zu dead, %zu remapped to spares, %zu unrecovered "
        "(%zu slots/word) | reliability overhead %.2f us\n",
        rep.lanes.dead_lanes.size(), rep.lanes.spares_used,
        rep.lanes.residual_dead, rep.lanes.slots_per_word,
        rep.reliability_overhead_ns * 1e-3);
  }
  std::printf("\n");
}

void print_single(const driver::RunRecord& rec) {
  if (rec.status != driver::PointStatus::kOk) {
    const char* kind =
        rec.failure ? to_string(rec.failure->kind) : "internal_error";
    std::printf("point %zu %s (%s): %s\n", rec.index, to_string(rec.status),
                kind, rec.failure ? rec.failure->message.c_str() : "");
    return;
  }
  if (rec.workload == "fft2d" || rec.workload == "fft1d" ||
      rec.workload == "reliability" || rec.workload == "degradation_sweep") {
    std::printf("== P-sync ==\n");
    if (rec.psync) print_psync(*rec.psync);
    if (rec.mesh) {
      std::printf("== electronic mesh ==\n");
      print_phase_table(rec.mesh->phases);
      std::printf("total %.2f us | %.2f GFLOPS | energy %.1f nJ | err %.2e\n\n",
                  rec.mesh->total_ns * 1e-3, rec.mesh->gflops,
                  rec.mesh->total_energy_pj() * 1e-3,
                  rec.mesh->max_error_vs_reference);
      std::printf("P-sync speedup: %.2fx, energy advantage: %.2fx\n",
                  rec.mesh->total_ns / rec.psync->total_ns,
                  rec.mesh->total_energy_pj() / rec.psync->total_energy_pj());
    }
    return;
  }
  if (rec.workload == "mesh" && rec.mesh) {
    std::printf("== electronic mesh ==\n");
    print_phase_table(rec.mesh->phases);
    std::printf("total %.2f us | %.2f GFLOPS | energy %.1f nJ | err %.2e\n",
                rec.mesh->total_ns * 1e-3, rec.mesh->gflops,
                rec.mesh->total_energy_pj() * 1e-3,
                rec.mesh->max_error_vs_reference);
    return;
  }
  if (rec.workload == "transpose" && rec.transpose) {
    std::printf(
        "mesh transpose: %lld cycles (%.2f cycles/element), %llu elements\n",
        static_cast<long long>(rec.transpose->completion_cycle),
        rec.transpose->cycles_per_element,
        static_cast<unsigned long long>(rec.transpose->elements));
    return;
  }
  if (rec.workload == "pipeline" && rec.pipeline) {
    std::printf(
        "frame latency %.2f us | initiation interval %.2f us | "
        "%.0f frames/s | bound by %s\n",
        rec.pipeline->latency_ns * 1e-3, rec.pipeline->interval_ns * 1e-3,
        rec.pipeline->frames_per_sec,
        rec.pipeline->bus_bound ? "waveguide" : "compute");
    return;
  }
  // Generic fall-back: one-row metrics table.
  driver::SweepResult one;
  one.records.push_back(rec);
  std::printf("%s", driver::sweep_table(one, rec.workload).c_str());
}

std::string sweep_title(const driver::ExperimentSpec& spec) {
  std::string axes;
  for (const auto& axis : spec.axes) {
    if (!axes.empty()) axes += " x ";
    axes += axis.knob;
  }
  return "P-sync " + spec.workload + " sweep over " + axes;
}

int usage() {
  std::fprintf(stderr,
               "usage: psync_sim [--strict] [--threads N] [--json | --csv] "
               "[--profile]\n"
               "                 [--journal PATH | --resume PATH] "
               "[--timeout-ms X] [--retries N]\n"
               "                 [--workers N] [--heartbeat-ms X]\n"
               "                 [--listen [HOST:]PORT [--advertise HOST]]\n"
               "                 [--chaos-seed S --chaos-drop P --chaos-dup P "
               "--chaos-reorder P\n"
               "                  --chaos-delay P --chaos-delay-ms X\n"
               "                  --chaos-partition-after N "
               "--chaos-partition-ms X [--chaos-partition-repeat]]\n"
               "                 <config.ini>\n"
               "       psync_sim --worker-shard A:B --connect HOST:PORT "
               "--worker-epoch E --worker-id N\n"
               "                 [--heartbeat-ms X] [chaos flags] "
               "<config.ini>\n"
               "       psync_sim --demo | --list\n");
  return 2;
}

// Process-wide shutdown token: SIGTERM/SIGINT request a graceful wind-down
// (journal tails stay durable, exit code 4) instead of killing the sweep
// mid-write. The handler is a relaxed atomic store — async-signal-safe.
psync::CancelToken g_cancel;

void sim_signal_handler(int /*signo*/) { g_cancel.cancel(); }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = sim_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: wake blocking syscalls too
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

/// Everything the command line sets. build_spec reads the config path and
/// the spec overrides; the rest picks the mode and the output.
struct Options {
  bool strict = false;
  bool json = false;
  bool csv = false;
  bool profile = false;
  std::string config_path;
  // Spec overrides, applied over the config before Session::validate.
  std::optional<std::uint64_t> threads;
  std::optional<std::uint64_t> retries;
  std::optional<double> timeout_ms;
  std::string journal_path;
  bool resume = false;
  // Distributed leader (workers > 0).
  std::size_t workers = 0;
  double heartbeat_ms = 100.0;
  std::string listen_spec;     // --listen: leader bind address
  std::string advertise_host;  // --advertise: address workers dial
  // Frame-level fault injection on the worker links: the leader derives
  // one seed per shard, a worker started by hand applies it as given.
  dist::ChaosOptions chaos;
  // A worker started by hand (--worker-shard / --connect).
  bool worker_mode = false;
  dist::WorkerConfig worker;
};

/// "A:B" -> [A, B), both strict decimals (parse_decimal). Returns false
/// on anything malformed.
bool parse_shard_range(const std::string& arg, dist::ShardRange* out) {
  const std::size_t colon = arg.find(':');
  if (colon == std::string::npos) return false;
  const auto begin = parse_decimal(arg.substr(0, colon));
  const auto end = parse_decimal(arg.substr(colon + 1));
  if (!begin || !end) return false;
  out->begin = *begin;
  out->end = *end;
  return true;
}

/// The one front end of every mode (serial, leader, worker started by
/// hand): load the config, check it against the key schema (strict mode),
/// spec_from_config, the CLI overrides, Session::validate. Each problem is
/// printed once, and a bad value always as an error. Returns the exit code
/// to stop with, or 0 with `*spec` ready to run.
int build_spec(Options& opt, driver::ExperimentSpec* spec) {
  const IniConfig cfg = IniConfig::load(opt.config_path);

  // Schema validation: typos stop silently meaning "use the default".
  const auto diags = driver::sim_config_schema().validate(cfg);
  opt.strict = opt.strict || cfg.get_bool("experiment", "strict", false);
  bool any_fatal = false;
  for (const auto& d : diags) {
    const bool fatal =
        opt.strict || d.kind == ConfigDiagnostic::Kind::kBadValue;
    any_fatal = any_fatal || fatal;
    std::fprintf(stderr, "psync_sim: %s: %s\n", fatal ? "error" : "warning",
                 d.to_string().c_str());
  }
  if (opt.strict && any_fatal) {
    std::fprintf(stderr, "psync_sim: %zu config problem(s) (--strict)\n",
                 diags.size());
    return 2;
  }
  if (any_fatal) return 1;  // a bad value is fatal in every mode

  *spec = driver::spec_from_config(cfg);
  opt.json = opt.json || cfg.get_bool("experiment", "json", false);
  opt.csv = opt.csv || cfg.get_bool("experiment", "csv", false);

  if (opt.threads) spec->threads = *opt.threads;
  if (opt.retries) spec->guard.max_retries = *opt.retries;
  if (opt.timeout_ms) spec->guard.point_timeout_ms = *opt.timeout_ms;
  if (!opt.journal_path.empty()) spec->journal_path = opt.journal_path;
  spec->resume = spec->resume || opt.resume;

  // Typed diagnostics, all of them (not just the first throw): an override
  // out of its key's range is reported like the same value in the config.
  const auto errors = driver::Session::validate(*spec);
  for (const auto& err : errors) {
    std::fprintf(stderr, "psync_sim: error: %s\n", err.what());
  }
  return errors.empty() ? 0 : 1;
}

/// --profile: wall-clock breakdown of the tool's own phases plus the
/// per-point cost of the sweep. Goes to stderr so piped --json/--csv
/// output stays parseable. Host timing only — simulated time is in the
/// reports themselves.
void print_profile(const perf::PhaseProfiler& prof,
                   const driver::SweepResult& result) {
  std::fprintf(stderr, "\n-- profile (host wall clock) --\n%s",
               prof.table().c_str());
  double sweep_ns = 0.0;
  for (const auto& rec : result.records) sweep_ns += rec.wall_ns;
  if (result.records.size() > 1) {
    std::fprintf(stderr, "\nper sweep point:\n");
    perf::PhaseProfiler points;
    for (const auto& rec : result.records) {
      std::string label = rec.workload + "#" + std::to_string(rec.index);
      for (const auto& [knob, value] : rec.knobs) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), " %s=%g", knob.c_str(), value);
        label += buf;
      }
      points.add(label, rec.wall_ns);
    }
    std::fprintf(stderr, "%s", points.table().c_str());
  }
  if (sweep_ns > 0.0) {
    std::fprintf(
        stderr, "sweep: %zu point(s) in %.3f ms of point work (%s)\n",
        result.records.size(), sweep_ns * 1e-6,
        perf::format_rate(
            static_cast<double>(result.records.size()) / (sweep_ns * 1e-9),
            "points")
            .c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool saw_journal = false;
  bool saw_resume = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Numeric flag values parse whole-token into *out; false (a usage
    // error) when the value is missing or malformed. Counts are strict
    // decimals (parse_decimal).
    const auto read_count = [&](auto* out) {
      const auto v = i + 1 < argc ? parse_decimal(argv[++i]) : std::nullopt;
      if (v) *out = static_cast<std::remove_reference_t<decltype(*out)>>(*v);
      return v.has_value();
    };
    const auto read_number = [&](auto* out) {
      const auto v = i + 1 < argc ? parse_double(argv[++i]) : std::nullopt;
      if (v) *out = *v;
      return v.has_value();
    };
    if (arg == "--demo") {
      std::printf("%s", kDemo);
      return 0;
    }
    if (arg == "--list") {
      for (const auto& name : driver::workload_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (arg == "--strict") {
      opt.strict = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--profile") {
      opt.profile = true;
    } else if (arg == "--threads") {
      if (!read_count(&opt.threads)) return usage();
    } else if (arg == "--journal") {
      if (i + 1 >= argc) return usage();
      opt.journal_path = argv[++i];
      saw_journal = true;
    } else if (arg == "--resume") {
      if (i + 1 >= argc) return usage();
      opt.journal_path = argv[++i];
      opt.resume = true;
      saw_resume = true;
    } else if (arg == "--timeout-ms") {
      if (!read_number(&opt.timeout_ms)) return usage();
    } else if (arg == "--retries") {
      if (!read_count(&opt.retries)) return usage();
    } else if (arg == "--workers") {
      if (!read_count(&opt.workers) || opt.workers == 0) return usage();
    } else if (arg == "--heartbeat-ms") {
      if (!read_number(&opt.heartbeat_ms)) return usage();
    } else if (arg == "--listen") {
      if (i + 1 >= argc) return usage();
      opt.listen_spec = argv[++i];
    } else if (arg == "--advertise") {
      if (i + 1 >= argc) return usage();
      opt.advertise_host = argv[++i];
    } else if (arg == "--chaos-seed") {
      if (!read_count(&opt.chaos.seed)) return usage();
    } else if (arg == "--chaos-drop") {
      if (!read_number(&opt.chaos.drop)) return usage();
    } else if (arg == "--chaos-dup") {
      if (!read_number(&opt.chaos.duplicate)) return usage();
    } else if (arg == "--chaos-reorder") {
      if (!read_number(&opt.chaos.reorder)) return usage();
    } else if (arg == "--chaos-delay") {
      if (!read_number(&opt.chaos.delay)) return usage();
    } else if (arg == "--chaos-delay-ms") {
      if (!read_number(&opt.chaos.delay_ms)) return usage();
    } else if (arg == "--chaos-partition-after") {
      if (!read_count(&opt.chaos.partition_after)) return usage();
    } else if (arg == "--chaos-partition-ms") {
      if (!read_number(&opt.chaos.partition_ms)) return usage();
    } else if (arg == "--chaos-partition-repeat") {
      opt.chaos.partition_repeat = true;
    } else if (arg == "--connect") {  // worker started by hand
      if (i + 1 >= argc ||
          !dist::parse_host_port(argv[++i], &opt.worker.connect_host,
                                 &opt.worker.connect_port)) {
        return usage();
      }
      opt.worker_mode = true;
    } else if (arg == "--worker-shard") {
      if (i + 1 >= argc || !parse_shard_range(argv[++i], &opt.worker.range)) {
        return usage();
      }
      opt.worker_mode = true;
    } else if (arg == "--worker-epoch") {
      if (!read_count(&opt.worker.epoch)) return usage();
    } else if (arg == "--worker-id") {
      if (!read_count(&opt.worker.shard)) return usage();
    } else if (!arg.empty() && arg.front() == '-') {
      return usage();
    } else if (opt.config_path.empty()) {
      opt.config_path = arg;
    } else {
      return usage();
    }
  }
  if (opt.config_path.empty()) return usage();
  // --journal and --resume are documented as alternatives: --resume PATH
  // already appends newly finished points to PATH. Passing both used to
  // silently keep whichever came last; make the conflict loud instead.
  if (saw_journal && saw_resume) {
    std::fprintf(stderr,
                 "psync_sim: --journal and --resume are mutually exclusive "
                 "(--resume PATH already appends new points to PATH)\n");
    return usage();
  }
  // --listen/--advertise configure where the leader listens; without
  // --workers they would be silently ignored (and a bad HOST:PORT never
  // diagnosed). Make that loud too.
  if (!opt.listen_spec.empty() && (opt.workers == 0 || opt.worker_mode)) {
    std::fprintf(stderr, "psync_sim: --listen requires --workers N\n");
    return usage();
  }
  if (!opt.advertise_host.empty() && opt.listen_spec.empty()) {
    std::fprintf(stderr, "psync_sim: --advertise requires --listen\n");
    return usage();
  }

  install_signal_handlers();

  try {
    perf::PhaseProfiler prof;
    prof.begin("parse + validate config");
    driver::ExperimentSpec spec;
    if (const int rc = build_spec(opt, &spec); rc != 0) return rc;
    prof.end();

    // A worker started by hand for a leader's --workers run (the two-host
    // recipe). run_worker overlays the shard window, installs its own
    // signal handling and never throws.
    if (opt.worker_mode) {
      opt.worker.heartbeat_ms = opt.heartbeat_ms;
      opt.worker.chaos = opt.chaos;
      return dist::run_worker(spec, opt.worker);
    }

    prof.begin("run sweep");
    // One cancel channel for both paths: the SIGTERM/SIGINT handler token
    // stops the serial pool and the distributed leader alike.
    spec.cancel = &g_cancel;
    driver::SweepResult result;
    if (opt.workers > 0) {
      // Distributed leader: shard the grid across forked worker processes
      // that run this very spec. The merged result renders through exactly
      // the same paths as a serial run.
      dist::SupervisorOptions sup;
      sup.workers = opt.workers;
      sup.heartbeat_ms = opt.heartbeat_ms;
      // Without --journal the shard journals go to a fresh directory of
      // this run's own, removed once the merge is done: a base named after
      // the pid would attach a stranger's journals when the pid recurs.
      std::string scratch_dir;
      if (!spec.journal_path.empty()) {
        sup.journal_base = spec.journal_path;
      } else {
        char dir[] = "/tmp/psync-dist-XXXXXX";
        if (::mkdtemp(dir) == nullptr) {
          throw SimulationError(
              std::string("cannot create a shard-journal directory: ") +
              std::strerror(errno));
        }
        scratch_dir = dir;
        sup.journal_base = scratch_dir + "/sweep";
      }
      if (!opt.listen_spec.empty()) {
        if (!dist::parse_host_port(opt.listen_spec, &sup.listen_host,
                                   &sup.listen_port)) {
          std::fprintf(stderr, "psync_sim: bad --listen '%s'\n",
                       opt.listen_spec.c_str());
          return usage();
        }
        sup.advertise_host = opt.advertise_host;
      }
      // Per-shard chaos seeds: derived, not shared, so the shards' fault
      // sequences decorrelate while a fixed --chaos-seed still replays the
      // identical run.
      const dist::LaunchHook hook = [&](dist::WorkerConfig& wc) {
        if (opt.chaos.seed == 0) return;
        wc.chaos = opt.chaos;
        wc.chaos.seed =
            opt.chaos.seed ^ (0x9E3779B97F4A7C15ULL * (wc.shard + 1));
        if (wc.chaos.seed == 0) wc.chaos.seed = 1;  // 0 would disarm it
      };
      result = dist::run_distributed(spec, sup, hook);
      if (!scratch_dir.empty()) std::filesystem::remove_all(scratch_dir);
    } else {
      driver::Session session;
      auto handle = session.submit(spec);
      handle.wait();
      result = handle.take();
    }
    prof.end(result.records.size(), "points");

    prof.begin("render output");
    if (opt.json) {
      std::printf("%s\n", driver::sweep_json(result).c_str());
    } else if (opt.csv) {
      std::printf("%s", driver::sweep_csv(result).c_str());
    } else if (!spec.axes.empty()) {
      std::printf("%s", driver::sweep_table(result, sweep_title(spec)).c_str());
    } else {
      print_single(result.records.front());
    }
    prof.end();

    if (opt.profile) print_profile(prof, result);

    // Campaign accounting: surfaced whenever journaling/resume is active
    // or some point did not finish clean (stderr, so piped --json/--csv
    // output stays parseable).
    const auto& camp = result.campaign;
    if (!spec.journal_path.empty() || camp.resumed > 0 || !camp.all_ok()) {
      std::fprintf(stderr,
                   "psync_sim: campaign: %zu point(s): %zu ok, %zu failed, "
                   "%zu quarantined, %llu retry(ies), %zu resumed from "
                   "journal\n",
                   camp.points, camp.ok, camp.failed, camp.quarantined,
                   static_cast<unsigned long long>(camp.retries),
                   camp.resumed);
      for (const auto& rec : result.records) {
        if (rec.status == driver::PointStatus::kOk || !rec.failure) continue;
        std::fprintf(stderr, "psync_sim:   point %zu %s (%s): %s\n",
                     rec.index, to_string(rec.status),
                     to_string(rec.failure->kind),
                     rec.failure->message.c_str());
      }
    }
    // Distributed supervision accounting (never serialized: the JSON/CSV
    // stay byte-identical to a single-process run).
    if (opt.workers > 0 &&
        (camp.worker_restarts > 0 || camp.worker_steals > 0 ||
         camp.worker_reconnects > 0 || camp.worker_fenced > 0 ||
         !camp.worker_failures.empty())) {
      std::fprintf(stderr,
                   "psync_sim: dist: %llu worker restart(s), %llu range "
                   "steal(s), %llu reconnect(s), %llu fenced, "
                   "%zu incident(s)\n",
                   static_cast<unsigned long long>(camp.worker_restarts),
                   static_cast<unsigned long long>(camp.worker_steals),
                   static_cast<unsigned long long>(camp.worker_reconnects),
                   static_cast<unsigned long long>(camp.worker_fenced),
                   camp.worker_failures.size());
      for (const auto& incident : camp.worker_failures) {
        std::fprintf(stderr, "psync_sim:   dist %s: %s\n",
                     to_string(incident.kind), incident.message.c_str());
      }
    }
    if (camp.ok == 0 && camp.points > 0) return 1;  // nothing succeeded
    if (opt.strict && !camp.all_ok()) return 3;
    return 0;
  } catch (const CancelledError& e) {
    std::fprintf(stderr,
                 "psync_sim: cancelled: %s (resume with --resume against the "
                 "same journal)\n",
                 e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psync_sim: %s\n", e.what());
    return 1;
  }
}
