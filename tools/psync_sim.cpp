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
// single-process run — see docs/robustness.md. Workers are launched as
// `psync_sim --worker-shard A:B --connect HOST:PORT ...` re-invocations of
// this binary; the worker flags are internal plumbing, not a user
// interface. --journal doubles as the shard-journal base path (default:
// under /tmp).
//
// Workers always dial the leader over TCP: heartbeats and per-point
// journal records travel as length-prefixed frames, the leader appends
// records to the local shard journals (fsync before ack) and fences
// zombie workers by lease epoch. Without --listen the leader binds
// 127.0.0.1 on an ephemeral port. --listen [HOST:]PORT (PORT 0 =
// ephemeral) picks the bind address for remote workers, and --advertise
// HOST is the address workers are told to dial when it differs from the
// bind address (two-host runs; see EXPERIMENTS.md). A worker launched by
// hand connects with
// `psync_sim --worker-shard A:B --connect HOST:PORT --worker-epoch E ...`.
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
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
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

/// "A:B" -> [A, B). Returns false on anything malformed.
bool parse_shard_range(const std::string& arg, dist::ShardRange* out) {
  const std::size_t colon = arg.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= arg.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long a = std::strtoull(arg.c_str(), &end, 10);
  if (end != arg.c_str() + colon) return false;
  const char* bp = arg.c_str() + colon + 1;
  const unsigned long long b = std::strtoull(bp, &end, 10);
  if (*end != '\0') return false;
  out->begin = static_cast<std::size_t>(a);
  out->end = static_cast<std::size_t>(b);
  return true;
}

/// "3,7,12" -> {3, 7, 12}. Empty string -> empty list.
bool parse_index_list(const std::string& arg, std::vector<std::size_t>* out) {
  std::size_t at = 0;
  while (at < arg.size()) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(arg.c_str() + at, &end, 10);
    if (end == arg.c_str() + at) return false;
    out->push_back(static_cast<std::size_t>(v));
    at = static_cast<std::size_t>(end - arg.c_str());
    if (at < arg.size()) {
      if (arg[at] != ',') return false;
      ++at;
    }
  }
  return true;
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
  bool strict = false;
  bool json = false;
  bool csv = false;
  bool profile = false;
  long threads_override = -1;
  std::string journal_path;
  bool resume = false;
  bool saw_journal = false;
  bool saw_resume = false;
  double timeout_ms = -1.0;
  long retries_override = -1;
  std::string config_path;
  long workers = 0;            // > 0: distributed leader mode
  double heartbeat_ms = 100.0;
  std::string listen_spec;     // --listen: leader bind address
  std::string advertise_host;  // --advertise: address workers dial
  // Frame-level fault injection on the worker links (leader forwards it to
  // every worker it launches; a worker applies it to its own link).
  dist::ChaosOptions chaos;
  // Internal worker-mode plumbing (leader-launched re-invocations).
  bool worker_mode = false;
  dist::WorkerConfig worker_cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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
      strict = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc) return usage();
      threads_override = std::atol(argv[++i]);
    } else if (arg == "--journal") {
      if (i + 1 >= argc) return usage();
      journal_path = argv[++i];
      saw_journal = true;
    } else if (arg == "--resume") {
      if (i + 1 >= argc) return usage();
      journal_path = argv[++i];
      resume = true;
      saw_resume = true;
    } else if (arg == "--timeout-ms") {
      if (i + 1 >= argc) return usage();
      timeout_ms = std::atof(argv[++i]);
    } else if (arg == "--retries") {
      if (i + 1 >= argc) return usage();
      retries_override = std::atol(argv[++i]);
    } else if (arg == "--workers") {
      if (i + 1 >= argc) return usage();
      workers = std::atol(argv[++i]);
      if (workers <= 0) return usage();
    } else if (arg == "--heartbeat-ms") {
      if (i + 1 >= argc) return usage();
      heartbeat_ms = std::atof(argv[++i]);
    } else if (arg == "--listen") {
      if (i + 1 >= argc) return usage();
      listen_spec = argv[++i];
    } else if (arg == "--advertise") {
      if (i + 1 >= argc) return usage();
      advertise_host = argv[++i];
    } else if (arg == "--chaos-seed") {
      if (i + 1 >= argc) return usage();
      chaos.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--chaos-drop") {
      if (i + 1 >= argc) return usage();
      chaos.drop = std::atof(argv[++i]);
    } else if (arg == "--chaos-dup") {
      if (i + 1 >= argc) return usage();
      chaos.duplicate = std::atof(argv[++i]);
    } else if (arg == "--chaos-reorder") {
      if (i + 1 >= argc) return usage();
      chaos.reorder = std::atof(argv[++i]);
    } else if (arg == "--chaos-delay") {
      if (i + 1 >= argc) return usage();
      chaos.delay = std::atof(argv[++i]);
    } else if (arg == "--chaos-delay-ms") {
      if (i + 1 >= argc) return usage();
      chaos.delay_ms = std::atof(argv[++i]);
    } else if (arg == "--chaos-partition-after") {
      if (i + 1 >= argc) return usage();
      chaos.partition_after =
          static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--chaos-partition-ms") {
      if (i + 1 >= argc) return usage();
      chaos.partition_ms = std::atof(argv[++i]);
    } else if (arg == "--chaos-partition-repeat") {
      chaos.partition_repeat = true;
    } else if (arg == "--connect") {  // worker mode: dial the leader
      if (i + 1 >= argc) return usage();
      worker_mode = true;
      if (!dist::parse_host_port(argv[++i], &worker_cfg.connect_host,
                                 &worker_cfg.connect_port)) {
        return usage();
      }
    } else if (arg == "--worker-epoch") {
      if (i + 1 >= argc) return usage();
      worker_cfg.epoch = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--worker-shard") {
      if (i + 1 >= argc) return usage();
      worker_mode = true;
      if (!parse_shard_range(argv[++i], &worker_cfg.range)) return usage();
    } else if (arg == "--worker-id") {
      if (i + 1 >= argc) return usage();
      worker_cfg.shard = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--worker-generation") {
      if (i + 1 >= argc) return usage();
      worker_cfg.generation = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--quarantine") {
      if (i + 1 >= argc) return usage();
      if (!parse_index_list(argv[++i], &worker_cfg.quarantine)) {
        return usage();
      }
    } else if (arg == "--crash-on-index") {  // fault injection (tests/smoke)
      if (i + 1 >= argc) return usage();
      worker_cfg.crash_on_index = std::atol(argv[++i]);
    } else if (arg == "--stall-on-index") {
      if (i + 1 >= argc) return usage();
      worker_cfg.stall_on_index = std::atol(argv[++i]);
    } else if (!arg.empty() && arg.front() == '-') {
      return usage();
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      return usage();
    }
  }
  if (config_path.empty()) return usage();
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
  if (!listen_spec.empty() && (workers <= 0 || worker_mode)) {
    std::fprintf(stderr, "psync_sim: --listen requires --workers N\n");
    return usage();
  }
  if (!advertise_host.empty() && listen_spec.empty()) {
    std::fprintf(stderr, "psync_sim: --advertise requires --listen\n");
    return usage();
  }

  // Worker mode: a shard worker launched by a leader's --workers run. The
  // spec is rebuilt from the same config + overrides the leader saw; shard
  // window, leader address and heartbeat plumbing come from the worker
  // flags.
  // run_worker installs its own signal handling and never throws.
  if (worker_mode) {
    try {
      const IniConfig cfg = IniConfig::load(config_path);
      auto spec = driver::spec_from_config(cfg);
      if (threads_override > 0) {
        spec.threads = static_cast<std::size_t>(threads_override);
      }
      if (timeout_ms >= 0.0) spec.guard.point_timeout_ms = timeout_ms;
      if (retries_override >= 0) {
        spec.guard.max_retries = static_cast<std::size_t>(retries_override);
      }
      worker_cfg.heartbeat_ms = heartbeat_ms;
      worker_cfg.chaos = chaos;
      return dist::run_worker(spec, worker_cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "psync_sim (worker): %s\n", e.what());
      return 1;
    }
  }

  install_signal_handlers();

  try {
    perf::PhaseProfiler prof;
    prof.begin("parse + validate config");
    const IniConfig cfg = IniConfig::load(config_path);

    // Schema validation: typos stop silently meaning "use the default".
    const auto diags = driver::sim_config_schema().validate(cfg);
    strict = strict || cfg.get_bool("experiment", "strict", false);
    for (const auto& d : diags) {
      std::fprintf(stderr, "psync_sim: %s: %s\n",
                   strict ? "error" : "warning", d.to_string().c_str());
    }
    if (strict && !diags.empty()) {
      std::fprintf(stderr, "psync_sim: %zu config problem(s) (--strict)\n",
                   diags.size());
      return 2;
    }

    auto spec = driver::spec_from_config(cfg);
    if (threads_override > 0) {
      spec.threads = static_cast<std::size_t>(threads_override);
    }
    if (!journal_path.empty()) spec.journal_path = journal_path;
    spec.resume = spec.resume || resume;
    if (timeout_ms >= 0.0) spec.guard.point_timeout_ms = timeout_ms;
    if (retries_override >= 0) {
      spec.guard.max_retries = static_cast<std::size_t>(retries_override);
    }
    json = json || cfg.get_bool("experiment", "json", false);
    csv = csv || cfg.get_bool("experiment", "csv", false);
    prof.end();

    prof.begin("run sweep");
    driver::SweepResult result;
    if (workers > 0) {
      // Distributed leader: shard the grid across worker processes that
      // re-invoke this binary in --worker-shard mode. The merged result
      // renders through exactly the same paths as a serial run.
      dist::SupervisorOptions opts;
      opts.workers = static_cast<std::size_t>(workers);
      opts.heartbeat_ms = heartbeat_ms;
      opts.journal_base = !spec.journal_path.empty()
                              ? spec.journal_path
                              : "/tmp/psync-dist-" + std::to_string(::getpid());
      opts.cancel = &g_cancel;
      if (!listen_spec.empty()) {
        if (!dist::parse_host_port(listen_spec, &opts.listen_host,
                                   &opts.listen_port)) {
          std::fprintf(stderr, "psync_sim: bad --listen '%s'\n",
                       listen_spec.c_str());
          return usage();
        }
        opts.advertise_host = advertise_host;
      }
      // Per-shard chaos seeds: derived, not shared, so the shards' fault
      // sequences decorrelate while a fixed --chaos-seed still replays the
      // identical run.
      const dist::LaunchHook hook = [&](dist::WorkerConfig& wc) {
        if (chaos.seed == 0) return;
        wc.chaos = chaos;
        wc.chaos.seed = chaos.seed ^ (0x9E3779B97F4A7C15ULL * (wc.shard + 1));
        if (wc.chaos.seed == 0) wc.chaos.seed = 1;  // 0 would disarm it
      };
      const dist::WorkerBody body = [&](const driver::ExperimentSpec&,
                                        const dist::WorkerConfig& wc) -> int {
        std::vector<std::string> args = {
            "psync_sim",
            "--worker-shard",
            std::to_string(wc.range.begin) + ":" + std::to_string(wc.range.end),
            "--worker-id", std::to_string(wc.shard),
            "--worker-generation", std::to_string(wc.generation),
            "--heartbeat-ms", std::to_string(wc.heartbeat_ms),
            "--threads", "1",
            "--connect",
            wc.connect_host + ":" + std::to_string(wc.connect_port),
            "--worker-epoch", std::to_string(wc.epoch)};
        if (wc.chaos.seed != 0) {
          const auto dbl = [](double v) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            return std::string(buf);
          };
          args.push_back("--chaos-seed");
          args.push_back(std::to_string(wc.chaos.seed));
          args.push_back("--chaos-drop");
          args.push_back(dbl(wc.chaos.drop));
          args.push_back("--chaos-dup");
          args.push_back(dbl(wc.chaos.duplicate));
          args.push_back("--chaos-reorder");
          args.push_back(dbl(wc.chaos.reorder));
          args.push_back("--chaos-delay");
          args.push_back(dbl(wc.chaos.delay));
          args.push_back("--chaos-delay-ms");
          args.push_back(dbl(wc.chaos.delay_ms));
          args.push_back("--chaos-partition-after");
          args.push_back(std::to_string(wc.chaos.partition_after));
          args.push_back("--chaos-partition-ms");
          args.push_back(dbl(wc.chaos.partition_ms));
          if (wc.chaos.partition_repeat) {
            args.push_back("--chaos-partition-repeat");
          }
        }
        if (!wc.quarantine.empty()) {
          std::string list;
          for (const std::size_t idx : wc.quarantine) {
            if (!list.empty()) list += ',';
            list += std::to_string(idx);
          }
          args.push_back("--quarantine");
          args.push_back(list);
        }
        if (wc.crash_on_index >= 0) {
          args.push_back("--crash-on-index");
          args.push_back(std::to_string(wc.crash_on_index));
        }
        if (wc.stall_on_index >= 0) {
          args.push_back("--stall-on-index");
          args.push_back(std::to_string(wc.stall_on_index));
        }
        if (timeout_ms >= 0.0) {
          args.push_back("--timeout-ms");
          args.push_back(std::to_string(timeout_ms));
        }
        if (retries_override >= 0) {
          args.push_back("--retries");
          args.push_back(std::to_string(retries_override));
        }
        args.push_back(config_path);
        std::vector<char*> argv_exec;
        argv_exec.reserve(args.size() + 1);
        for (auto& a : args) argv_exec.push_back(a.data());
        argv_exec.push_back(nullptr);
        ::execv("/proc/self/exe", argv_exec.data());
        std::fprintf(stderr, "psync_sim: execv failed: %s\n",
                     std::strerror(errno));
        return 127;
      };
      result = dist::run_distributed(spec, opts, body, hook);
    } else {
      spec.cancel = &g_cancel;
      // Session API: validate (pure, typed diagnostics — all of them, not
      // just the first throw), then submit the frozen spec and join.
      const auto errors = driver::Session::validate(spec);
      if (!errors.empty()) {
        for (const auto& err : errors) {
          std::fprintf(stderr, "psync_sim: error: %s\n", err.what());
        }
        return 1;
      }
      driver::Session session;
      auto handle = session.submit(spec);
      handle.wait();
      result = handle.take();
    }
    prof.end(result.records.size(), "points");

    prof.begin("render output");
    if (json) {
      std::printf("%s\n", driver::sweep_json(result).c_str());
    } else if (csv) {
      std::printf("%s", driver::sweep_csv(result).c_str());
    } else if (!spec.axes.empty()) {
      std::printf("%s", driver::sweep_table(result, sweep_title(spec)).c_str());
    } else {
      print_single(result.records.front());
    }
    prof.end();

    if (profile) print_profile(prof, result);

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
    if (workers > 0 &&
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
    if (strict && !camp.all_ok()) return 3;
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
