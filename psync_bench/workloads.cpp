#include "workloads.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <complex>
#include <map>
#include <optional>

#include "psync/common/config.hpp"
#include "psync/common/journal.hpp"
#include "psync/common/rng.hpp"
#include "psync/dist/merge.hpp"
#include "psync/dist/supervisor.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/fft/fft2d.hpp"
#include "psync/fft/plan_cache.hpp"
#include "psync/reliability/channel.hpp"

namespace psync_bench {

using psync::driver::ExperimentSpec;
using psync::driver::FrozenSpec;
using psync::driver::RunPoint;
using psync::driver::RunRecord;
using psync::driver::Session;
using psync::driver::SweepResult;

// --- shared run loop ------------------------------------------------------

namespace {

/// A pass or set-up never runs without a calibration on each side, and
/// calibration never takes more than a quarter of the run: the next one
/// waits until three calibration-lengths of passes have gone by.
constexpr double kPassesPerCalibration = 3.0;

/// Record-sized journal line for the append probe: about what one
/// 256x256 fft2d point journals.
std::string probe_line(std::size_t i) {
  std::string line = "{\"i\":" + std::to_string(i) + ",\"pad\":\"";
  line.append(2048, 'x');
  line += "\"}";
  return line;
}

}  // namespace

void journal_metrics(const Tracer& tr, Metrics* out) {
  const auto appends = tr.durations("common.journal_append");
  out->push_back({"common.journal_append_ms.p50", median(appends) * 1e3, "ms"});
  out->push_back({"common.journal_append_ms.p90", quantile(appends, 0.9) * 1e3, "ms"});
}

void Workload::probe_journal(RunContext& ctx) const {
  // Journal append latency, on the same filesystem the dist and serve
  // journals use.
  TempDir dir(ctx.opts.work_dir, "probe");
  psync::JournalWriter w;
  w.open(dir.path() + "/probe.jsonl", false);
  for (std::size_t i = 0; i < 40; ++i) {
    const std::string line = probe_line(i);
    Tracer::Scope s(ctx.tracer, "common.journal_append", i);
    w.append(line);
  }
  w.close();
}

CalMix Workload::cal_mix() const {
  // The fft2d machine (psync_sweep, and the compute inside dist_sweep and
  // serve_mix).
  return {1, 1, 2, 2};
}

double Workload::calibrate(RunContext& ctx, RunData* out) const {
  const double s = slowdown(ctx.cal->run(), cal_mix());
  out->slowdowns.push_back(s);
  return s;
}

double Workload::run_setups(RunContext& ctx, RunData* out) {
  const int n_setups = ctx.opts.smoke ? 1 : setups();
  double c_prev = calibrate(ctx, out);
  for (int i = 0; i < n_setups; ++i) {
    const double t0 = now_s();
    setup(ctx.opts);
    const double dt = now_s() - t0;
    const double c = calibrate(ctx, out);
    out->setup_s.push_back(dt);
    out->setup_cal.push_back(dt / (0.5 * (c_prev + c)));
    c_prev = c;
  }
  return c_prev;
}

void Workload::measure(RunContext& ctx, RunData* out) {
  double c_prev = run_setups(ctx, out);
  struct Pending {
    double wall_s;
    double cpu_per_point_s;
  };
  std::vector<Pending> pending;  // untraced passes since the last calibration
  double last_cal_end = now_s();
  const double t_start = last_cal_end;
  const std::size_t min_passes = ctx.traced ? 2 : 1;
  std::uint64_t first_digest = 0;
  bool have_digest = false;
  for (std::size_t i = 0;; ++i) {
    const bool traced = ctx.traced && (i % 2 == 1);
    const CpuTimes cpu0 = cpu_times();
    const double t0 = now_s();
    const PassResult r = pass(traced ? ctx.tracer : nullptr);
    const double dt = now_s() - t0;
    const CpuTimes cpu1 = cpu_times();
    out->attempted += r.attempted;
    out->failed += r.failed;
    if (traced) {
      out->traced_pass_s.push_back(dt);
    } else {
      const double cpu = cpu1.total() - cpu0.total();
      out->pass_s.push_back(dt);
      pending.push_back({dt, r.points > 0 ? cpu / static_cast<double>(r.points) : 0.0});
      out->points += static_cast<double>(r.points);
      out->cpu_s += cpu;
      const std::uint64_t d = last_digest();
      if (!have_digest) {
        first_digest = d;
        have_digest = true;
      } else if (d != first_digest) {
        ++out->failed;
        out->errors.push_back("pass " + std::to_string(i) +
                              " rendered different output than pass 0");
      }
    }
    const double now = now_s();
    const bool done = ctx.opts.smoke
                          ? i + 1 >= min_passes
                          : (now - t_start >= ctx.seconds && i + 1 >= min_passes);
    if (done || now - last_cal_end >= kPassesPerCalibration * ctx.cal->totals().back()) {
      const double c = calibrate(ctx, out);
      const double adjacent = 0.5 * (c_prev + c);
      for (const auto& p : pending) {
        out->pass_cal.push_back(p.wall_s / adjacent);
        out->cpu_cal_per_point.push_back(p.cpu_per_point_s / adjacent);
      }
      pending.clear();
      c_prev = c;
      last_cal_end = now_s();
    }
    if (done) break;
  }
  out->digest = first_digest;
  out->has_digest = have_digest;

  if (ctx.traced) probe_journal(ctx);
  finish(out);
}

// --- per-layer metric catalog ---------------------------------------------

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"driver.freeze_ms", "ms"},
        {"driver.input_ms", "ms"},
        {"driver.render_ms", "ms"},
        {"driver.points_executed", "count"},
        {"driver.points_cached", "count"},
        {"driver.points_resumed", "count"},
        {"core.psync_ctor_ms", "ms"},
        {"core.psync_run_s", "s"},
        {"core.self_s", "s"},
        {"core.mesh_ctor_ms", "ms"},
        {"core.transpose_s.g8", "s"},
        {"core.transpose_s.g16", "s"},
        {"fft.verify_s", "s"},
        {"fft.kernel_s", "s"},
        {"fft.butterflies", "count"},
    };
    for (const char* g : {"g8", "g16"}) {
      const std::string s = g;
      n.push_back({"mesh.cycles." + s, "cycles"});
      n.push_back({"mesh.link_traversals." + s, "count"});
      n.push_back({"mesh.arbitrations." + s, "count"});
      n.push_back({"mesh.mean_latency_cycles." + s, "cycles"});
      n.push_back({"mesh.hops_per_s." + s, "1/s"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"reliability.overhead_s", "s"},
        {"reliability.transmit_s", "s"},
        {"reliability.blocks_total", "count"},
        {"reliability.blocks_retried", "count"},
        {"reliability.retry_ratio", "ratio"},
        {"reliability.slots_replayed", "count"},
        {"reliability.corrected_bits", "count"},
        {"reliability.words_corrupted", "count"},
        {"reliability.residual_errors", "count"},
        {"sim.psync.total_us", "sim_us"},
        {"sim.psync.reorg_us", "sim_us"},
        {"sim.psync.gflops.mean", "GFLOP/s"},
        {"sim.psync.max_err", "ratio"},
        {"sim.psync.gap_free_points", "count"},
        {"sim.psync.phase_us.scatter_rows", "sim_us"},
        {"sim.psync.phase_us.row_ffts", "sim_us"},
        {"sim.psync.phase_us.sca_transpose", "sim_us"},
        {"sim.psync.phase_us.scatter_cols", "sim_us"},
        {"sim.psync.phase_us.col_ffts", "sim_us"},
        {"sim.psync.phase_us.sca_writeback", "sim_us"},
        {"common.journal_append_ms.p50", "ms"},
        {"common.journal_append_ms.p90", "ms"},
        {"dist.run_s", "s"},
        {"dist.inproc_s", "s"},
        {"dist.speedup", "ratio"},
        {"dist.merge_ms", "ms"},
        {"dist.worker_cpu_s", "s"},
        {"serve.start_ms", "ms"},
        {"serve.submit_ack_ms.p50", "ms"},
        {"serve.submit_ack_ms.p90", "ms"},
        {"serve.results_ms.p50", "ms"},
        {"serve.results_ms.p90", "ms"},
        {"serve.first_event_ms.p50", "ms"},
        {"serve.first_event_ms.p90", "ms"},
        {"serve.result_ms.p50", "ms"},
        {"serve.result_ms.p90", "ms"},
        {"serve.result_cal.p50", "s"},
        {"serve.slo_met_frac", "ratio"},
        {"serve.late_ms.p90", "ms"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.attach_frac", "ratio"},
        {"serve.cache_entries", "count"},
        {"host.calib_ms.p50", "ms"},
        {"host.pass_s.p50", "s"},
        {"host.pass_s.p75", "s"},
        {"host.points_per_s", "1/s"},
        {"host.cpu_s_per_point", "s"},
        {"trace.overhead_frac", "ratio"},
    };
    n.insert(n.end(), rest.begin(), rest.end());
    return n;
  }();
  return names;
}

void complete_layer_metrics(Metrics* m) {
  std::map<std::string, double> values;
  for (const auto& x : *m) values[x.name] = x.value;
  Metrics ordered;
  for (const auto& [name, unit] : layer_metric_names()) {
    ordered.push_back({name, values.count(name) != 0 ? values[name] : 0.0, unit});
  }
  *m = std::move(ordered);
}

namespace {

// --- helpers shared by the pass-based workloads ---------------------------

ExperimentSpec spec_from_ini(const std::string& ini) {
  return psync::driver::spec_from_config(psync::IniConfig::parse(ini));
}

std::uint64_t render_digest(const SweepResult& r) {
  return fnv1a(psync::driver::sweep_json(r) + psync::driver::sweep_csv(r));
}

/// Harness-side metrics shared by every traced run.
void host_metrics(const RunContext& ctx, const RunData& d, Metrics* out) {
  const double p50 = median(d.pass_s);
  const double points_per_pass =
      d.pass_s.empty() ? 0.0 : d.points / static_cast<double>(d.pass_s.size());
  out->push_back({"host.calib_ms.p50", median(ctx.cal->totals()) * 1e3, "ms"});
  out->push_back({"host.pass_s.p50", p50, "s"});
  out->push_back({"host.pass_s.p75", quantile(d.pass_s, 0.75), "s"});
  out->push_back({"host.points_per_s", p50 > 0 ? points_per_pass / p50 : 0.0, "1/s"});
  out->push_back({"host.cpu_s_per_point", d.points > 0 ? d.cpu_s / d.points : 0.0, "s"});
  const double traced = median(d.traced_pass_s);
  out->push_back({"trace.overhead_frac", p50 > 0 ? traced / p50 - 1.0 : 0.0, "ratio"});
  journal_metrics(*ctx.tracer, out);
}

/// Mean per traced pass of the total time in spans called `span`.
double per_pass(const RunContext& ctx, const RunData& d, const std::string& span) {
  const double n = static_cast<double>(std::max<std::size_t>(1, d.traced_pass_s.size()));
  return ctx.tracer->total(span) / n;
}

/// Same normalisation as the machine's own verify step: max abs deviation
/// over the reference's largest magnitude.
double normalized_max_error(const std::vector<std::complex<double>>& got,
                            const std::vector<std::complex<double>>& ref) {
  double max_abs = 1e-30;
  for (const auto& v : ref) max_abs = std::max(max_abs, std::abs(v));
  double max_err = 0.0;
  for (std::size_t i = 0; i < ref.size() && i < got.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - ref[i]));
  }
  return max_err / max_abs;
}

/// The row and column forward transforms a 2D FFT of `input` performs,
/// replayed through the shared FftPlan kernels. Returns butterflies.
std::uint64_t replay_fft_kernels(const std::vector<std::complex<double>>& input,
                                 std::size_t rows, std::size_t cols) {
  const auto& row_plan = psync::fft::shared_plan(cols);
  const auto& col_plan = psync::fft::shared_plan(rows);
  std::vector<std::complex<double>> data(input);
  std::uint64_t butterflies = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    butterflies += row_plan.forward({data.data() + r * cols, cols}).butterflies;
  }
  std::vector<std::complex<double>> col(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) col[r] = data[r * cols + c];
    butterflies += col_plan.forward(col).butterflies;
  }
  return butterflies;
}

/// Deterministic simulated-machine statistics over the traced passes.
struct SimTotals {
  double total_us = 0.0;
  double reorg_us = 0.0;
  double gflops_sum = 0.0;
  double max_err = 0.0;
  double gap_free = 0.0;
  double points = 0.0;
  std::map<std::string, double> phase_us;

  void add(const psync::core::PsyncRunReport& rep, double max_err_point) {
    total_us += rep.total_ns * 1e-3;
    reorg_us += rep.reorg_ns * 1e-3;
    gflops_sum += rep.gflops;
    max_err = std::max(max_err, max_err_point);
    gap_free += rep.sca_gap_free ? 1.0 : 0.0;
    points += 1.0;
    for (const auto& ph : rep.phases) phase_us[ph.name] += ph.duration_ns() * 1e-3;
  }

  /// Per-pass values (passes = traced passes that fed this total).
  void emit(double passes, Metrics* out) const {
    const double n = std::max(1.0, passes);
    out->push_back({"sim.psync.total_us", total_us / n, "sim_us"});
    out->push_back({"sim.psync.reorg_us", reorg_us / n, "sim_us"});
    out->push_back({"sim.psync.gflops.mean", points > 0 ? gflops_sum / points : 0.0, "GFLOP/s"});
    out->push_back({"sim.psync.max_err", max_err, "ratio"});
    out->push_back({"sim.psync.gap_free_points", gap_free / n, "count"});
    for (const auto& [phase, us] : phase_us) {
      out->push_back({"sim.psync.phase_us." + phase, us / n, "sim_us"});
    }
  }
};

/// A workload whose untraced pass is one Session::run of a frozen sweep
/// spec plus its JSON and CSV render.
class SessionSweep : public Workload {
 protected:
  [[nodiscard]] virtual std::string ini(std::uint64_t seed) const = 0;
  /// Failures in one record beyond a non-ok status.
  [[nodiscard]] virtual std::string check_record(const RunRecord& rec) const = 0;
  virtual void traced_pass(Tracer& tr, PassResult* r) = 0;

  void setup(const BenchOptions& opts) override {
    spec_ = spec_from_ini(ini(opts.seed));
    frozen_ = Session::freeze(spec_);
    warm_ = Session().run(spec_);
    digest_ = render_digest(warm_);
  }

  PassResult pass(Tracer* tr) override {
    PassResult r;
    if (tr != nullptr) {
      traced_pass(*tr, &r);
      return r;
    }
    auto handle = Session().submit(frozen_);
    const SweepResult result = handle.take();
    progress_ = handle.progress();
    digest_ = render_digest(result);
    r.points = result.records.size();
    r.attempted = frozen_.points.size();
    for (const auto& rec : result.records) {
      std::string err = rec.status == psync::driver::PointStatus::kOk
                            ? check_record(rec)
                            : std::string("point status ") + psync::driver::to_string(rec.status);
      if (!err.empty()) {
        ++r.failed;
        errors_.push_back(name() + " point " + std::to_string(rec.index) + ": " + err);
      }
    }
    if (result.records.size() != frozen_.points.size()) {
      r.failed += frozen_.points.size() - std::min(frozen_.points.size(), result.records.size());
    }
    return r;
  }

  [[nodiscard]] std::uint64_t last_digest() const override { return digest_; }

  void finish(RunData* out) override {
    for (std::size_t i = 0; i < errors_.size() && i < 5; ++i) out->errors.push_back(errors_[i]);
  }

  /// Driver-layer per-layer metrics every SessionSweep shares.
  void driver_metrics(const RunContext& ctx, const RunData& d, Metrics* out) const {
    out->push_back({"driver.freeze_ms", per_pass(ctx, d, "driver.freeze") * 1e3, "ms"});
    out->push_back({"driver.input_ms", per_pass(ctx, d, "driver.input") * 1e3, "ms"});
    out->push_back({"driver.render_ms", per_pass(ctx, d, "driver.render") * 1e3, "ms"});
    out->push_back({"driver.points_executed", static_cast<double>(progress_.executed), "count"});
    out->push_back({"driver.points_cached", static_cast<double>(progress_.cache_hits), "count"});
    out->push_back({"driver.points_resumed", static_cast<double>(progress_.resumed), "count"});
    host_metrics(ctx, d, out);
  }

  /// The render span every traced pass ends with: the same JSON+CSV the
  /// untraced pass renders, over the warm pass's result.
  void traced_render(Tracer& tr) {
    Tracer::Scope s(&tr, "driver.render");
    const std::string body = psync::driver::sweep_json(warm_) + psync::driver::sweep_csv(warm_);
    render_bytes_ += body.size();
  }

  FrozenSpec traced_freeze(Tracer& tr) const {
    Tracer::Scope s(&tr, "driver.freeze");
    return Session::freeze(spec_);
  }

  void record_error(PassResult* r, const std::string& what) {
    ++r->failed;
    errors_.push_back(name() + ": " + what);
  }

  ExperimentSpec spec_;
  FrozenSpec frozen_;
  SweepResult warm_;
  std::uint64_t digest_ = 0;
  psync::driver::CampaignProgress progress_;
  std::vector<std::string> errors_;
  std::size_t render_bytes_ = 0;
};

std::string check_max_err(const RunRecord& rec) {
  // float32 transport quantises every sample, so the machine's result sits
  // near single precision of the reference, never near 1.
  const double err = psync::driver::metric(rec, "max_err");
  if (!(err < 1e-4)) return "max_err " + std::to_string(err);
  return {};
}

// --- psync_sweep ----------------------------------------------------------

class PsyncSweep final : public SessionSweep {
 public:
  [[nodiscard]] std::string name() const override { return "psync_sweep"; }

 protected:
  [[nodiscard]] std::string ini(std::uint64_t seed) const override {
    return "[experiment]\nkind = fft2d\nverify = true\ninput_seed = " + std::to_string(seed) +
           "\n[machine]\nrows = 256\ncols = 256\nwaveguide_gbps = 320\n"
           "[sweep]\nprocessors = 8 16 32 64\nblocks = 1 2 4 8\n";
  }

  [[nodiscard]] std::string check_record(const RunRecord& rec) const override {
    return check_max_err(rec);
  }

  void traced_pass(Tracer& tr, PassResult* r) override {
    const FrozenSpec f = traced_freeze(tr);
    for (const RunPoint& pt : f.points) {
      Tracer::Scope point(&tr, "point", pt.index);
      const std::size_t rows = pt.machine.matrix_rows;
      const std::size_t cols = pt.machine.matrix_cols;
      std::vector<std::complex<double>> input;
      {
        Tracer::Scope s(&tr, "driver.input", pt.index);
        input = psync::driver::random_input(rows * cols, pt.seed);
      }
      std::optional<psync::core::PsyncMachine> m;
      {
        Tracer::Scope s(&tr, "core.psync_ctor", pt.index);
        m.emplace(pt.machine);
      }
      psync::core::PsyncRunReport rep;
      {
        Tracer::Scope s(&tr, "core.psync_run", pt.index);
        rep = m->run_fft2d(input, false);
      }
      std::vector<std::complex<double>> ref(input);
      {
        Tracer::Scope s(&tr, "fft.verify", pt.index);
        psync::fft::fft2d(ref, rows, cols, /*restore_layout=*/false);
      }
      const double err = normalized_max_error(m->result(), ref);
      {
        Tracer::Scope s(&tr, "fft.kernel", pt.index);
        butterflies_ += replay_fft_kernels(input, rows, cols);
      }
      sim_.add(rep, err);
      ++r->attempted;
      ++r->points;
      if (!(err < 1e-4)) record_error(r, "traced point max_err " + std::to_string(err));
    }
    traced_render(tr);
  }

 public:
  void layer_metrics(const RunContext& ctx, const RunData& d, Metrics* out) override {
    driver_metrics(ctx, d, out);
    const double run = per_pass(ctx, d, "core.psync_run");
    const double kernel = per_pass(ctx, d, "fft.kernel");
    const double n = static_cast<double>(std::max<std::size_t>(1, d.traced_pass_s.size()));
    out->push_back({"core.psync_ctor_ms", per_pass(ctx, d, "core.psync_ctor") * 1e3, "ms"});
    out->push_back({"core.psync_run_s", run, "s"});
    out->push_back({"core.self_s", std::max(0.0, run - kernel), "s"});
    out->push_back({"fft.verify_s", per_pass(ctx, d, "fft.verify"), "s"});
    out->push_back({"fft.kernel_s", kernel, "s"});
    out->push_back({"fft.butterflies", static_cast<double>(butterflies_) / n, "count"});
    sim_.emit(n, out);
  }

 private:
  std::uint64_t butterflies_ = 0;
  SimTotals sim_;
};

// --- mesh_transpose -------------------------------------------------------

class MeshTranspose final : public SessionSweep {
 public:
  [[nodiscard]] std::string name() const override { return "mesh_transpose"; }
  // Cycle stepping over small per-router arrays: tracks the core-local
  // parts only, and roughly twice as steeply as the fft2d machine.
  [[nodiscard]] CalMix cal_mix() const override { return {1, 1, 3, 0}; }

 protected:
  // Transpose traffic is fully determined by the grid, so the seed can
  // only choose the order the four points run (and render) in.
  [[nodiscard]] std::string ini(std::uint64_t seed) const override {
    const bool swap_grid = (seed & 1u) != 0;
    const bool swap_epp = (seed & 2u) != 0;
    return std::string("[experiment]\nkind = transpose\nelements = 256\ninput_seed = ") +
           std::to_string(seed) +
           "\n[machine]\nrows = 256\ncols = 256\n[mesh]\nt_p = 4\n"
           "[sweep]\ngrid = " + (swap_grid ? "16 8" : "8 16") +
           "\nelements_per_packet = " + (swap_epp ? "32 8" : "8 32") + "\n";
  }

  [[nodiscard]] std::string check_record(const RunRecord& rec) const override {
    const double elements = psync::driver::metric(rec, "elements");
    const double cycles = psync::driver::metric(rec, "cycles");
    double grid = 0.0;
    for (const auto& [k, v] : rec.knobs) {
      if (k == "grid") grid = v;
    }
    if (elements != grid * grid * 256.0) return "elements " + std::to_string(elements);
    if (!(cycles > 0.0)) return "no cycles";
    return {};
  }

  void traced_pass(Tracer& tr, PassResult* r) override {
    const FrozenSpec f = traced_freeze(tr);
    for (const RunPoint& pt : f.points) {
      Tracer::Scope point(&tr, "point", pt.index);
      const std::string g = std::string("g").append(std::to_string(pt.mesh.grid));
      std::optional<psync::core::MeshMachine> m;
      {
        Tracer::Scope s(&tr, "core.mesh_ctor", pt.index);
        m.emplace(pt.mesh);
      }
      psync::core::TransposeRunReport rep;
      {
        Tracer::Scope s(&tr, "core.transpose." + g, pt.index);
        rep = m->run_transpose_writeback(pt.transpose_elements);
      }
      auto& acc = mesh_[g];
      acc.cycles += static_cast<double>(rep.completion_cycle);
      acc.links += static_cast<double>(rep.activity.link_traversals);
      acc.arbitrations += static_cast<double>(rep.activity.arbitrations);
      acc.latency_sum += rep.mean_packet_latency_cycles;
      acc.points += 1.0;
      ++r->attempted;
      ++r->points;
      if (rep.elements != pt.mesh.grid * pt.mesh.grid * pt.transpose_elements) {
        record_error(r, "traced transpose delivered " + std::to_string(rep.elements) +
                            " elements");
      }
    }
    traced_render(tr);
  }

 public:
  void layer_metrics(const RunContext& ctx, const RunData& d, Metrics* out) override {
    driver_metrics(ctx, d, out);
    const double n = static_cast<double>(std::max<std::size_t>(1, d.traced_pass_s.size()));
    out->push_back({"core.mesh_ctor_ms", per_pass(ctx, d, "core.mesh_ctor") * 1e3, "ms"});
    for (const auto& [g, acc] : mesh_) {
      const double secs = per_pass(ctx, d, "core.transpose." + g);
      out->push_back({"core.transpose_s." + g, secs, "s"});
      out->push_back({"mesh.cycles." + g, acc.cycles / n, "cycles"});
      out->push_back({"mesh.link_traversals." + g, acc.links / n, "count"});
      out->push_back({"mesh.arbitrations." + g, acc.arbitrations / n, "count"});
      out->push_back({"mesh.mean_latency_cycles." + g,
                      acc.points > 0 ? acc.latency_sum / acc.points : 0.0, "cycles"});
      out->push_back({"mesh.hops_per_s." + g, secs > 0 ? acc.links / n / secs : 0.0, "1/s"});
    }
  }

 private:
  struct MeshTotals {
    double cycles = 0.0;
    double links = 0.0;
    double arbitrations = 0.0;
    double latency_sum = 0.0;
    double points = 0.0;
  };
  std::map<std::string, MeshTotals> mesh_;
};

// --- faulty_link ----------------------------------------------------------

class FaultyLink final : public SessionSweep {
 public:
  [[nodiscard]] std::string name() const override { return "faulty_link"; }
  // Two machines per point plus SECDED/CRC framing: more FFT-like than
  // psync_sweep.
  [[nodiscard]] CalMix cal_mix() const override { return {3, 1, 1, 2}; }

 protected:
  [[nodiscard]] std::string ini(std::uint64_t seed) const override {
    return "[experiment]\nkind = reliability_sweep\nmargins_db = 0 -1 -1.5 -2 -2.5\n"
           "input_seed = " + std::to_string(seed) +
           "\n[machine]\nprocessors = 16\nrows = 256\ncols = 256\nblocks = 4\n"
           "waveguide_gbps = 320\n[fault]\ndead_wavelengths = 13 41\nseed = " +
           std::to_string(seed) +
           "\n[reliability]\npolicy = correct\nblock_words = 64\nmax_retries = 4\n"
           "backoff_slots = 8\nspare_lanes = 4\ntraining_words = 16\n";
  }

  [[nodiscard]] std::string check_record(const RunRecord& rec) const override {
    const double residual = psync::driver::metric(rec, "residual");
    if (residual != 0.0) return "residual errors " + std::to_string(residual);
    return check_max_err(rec);
  }

  void traced_pass(Tracer& tr, PassResult* r) override {
    const FrozenSpec f = traced_freeze(tr);
    for (const RunPoint& pt : f.points) {
      Tracer::Scope point(&tr, "point", pt.index);
      const std::size_t rows = pt.machine.matrix_rows;
      const std::size_t cols = pt.machine.matrix_cols;
      std::vector<std::complex<double>> input;
      {
        Tracer::Scope s(&tr, "driver.input", pt.index);
        input = psync::driver::random_input(rows * cols, pt.seed);
      }
      auto clean = pt.machine;
      clean.fault = psync::core::FaultModel{};
      clean.reliability.policy = psync::reliability::ReliabilityPolicy::kOff;
      std::optional<psync::core::PsyncMachine> clean_m;
      std::optional<psync::core::PsyncMachine> faulty_m;
      {
        Tracer::Scope s(&tr, "core.psync_ctor", pt.index);
        clean_m.emplace(clean);
        faulty_m.emplace(pt.machine);
      }
      {
        Tracer::Scope s(&tr, "core.psync_run.clean", pt.index);
        (void)clean_m->run_fft2d(input, false);
      }
      psync::core::PsyncRunReport rep;
      {
        Tracer::Scope s(&tr, "core.psync_run.faulty", pt.index);
        rep = faulty_m->run_fft2d(input, false);
      }
      std::vector<std::complex<double>> ref(input);
      {
        Tracer::Scope s(&tr, "fft.verify", pt.index);
        psync::fft::fft2d(ref, rows, cols, /*restore_layout=*/false);
      }
      const double err = normalized_max_error(faulty_m->result(), ref);
      {
        // One replay per machine run, so core.self_s subtracts the kernel
        // work of both.
        Tracer::Scope s(&tr, "fft.kernel", pt.index);
        butterflies_ += replay_fft_kernels(input, rows, cols);
        butterflies_ += replay_fft_kernels(input, rows, cols);
      }
      // The channel alone, at this point's fault model and word count.
      std::vector<std::uint64_t> payload(rep.fault.words_total);
      psync::Rng rng(pt.seed);
      for (auto& w : payload) w = rng.next_u64();
      std::uint64_t transmit_residual = 0;
      {
        Tracer::Scope s(&tr, "reliability.transmit", pt.index);
        psync::reliability::ProtectedChannel ch(pt.machine.fault, pt.machine.reliability);
        const auto tx = ch.transmit(payload);
        transmit_residual = tx.retry.residual_errors;
      }
      retry_.merge(rep.retry);
      words_corrupted_ += rep.fault.words_corrupted;
      residual_ += rep.retry.residual_errors + transmit_residual;
      sim_.add(rep, err);
      ++r->attempted;
      ++r->points;
      if (rep.retry.residual_errors + transmit_residual != 0) {
        record_error(r, "residual errors at point " + std::to_string(pt.index));
      }
      if (!(err < 1e-4)) record_error(r, "traced point max_err " + std::to_string(err));
    }
    traced_render(tr);
  }

 public:
  void layer_metrics(const RunContext& ctx, const RunData& d, Metrics* out) override {
    driver_metrics(ctx, d, out);
    const double n = static_cast<double>(std::max<std::size_t>(1, d.traced_pass_s.size()));
    const double clean = per_pass(ctx, d, "core.psync_run.clean");
    const double faulty = per_pass(ctx, d, "core.psync_run.faulty");
    const double kernel = per_pass(ctx, d, "fft.kernel");
    out->push_back({"core.psync_ctor_ms", per_pass(ctx, d, "core.psync_ctor") * 1e3, "ms"});
    out->push_back({"core.psync_run_s", clean + faulty, "s"});
    out->push_back({"core.self_s", std::max(0.0, clean + faulty - kernel), "s"});
    out->push_back({"fft.verify_s", per_pass(ctx, d, "fft.verify"), "s"});
    out->push_back({"fft.kernel_s", kernel, "s"});
    out->push_back({"fft.butterflies", static_cast<double>(butterflies_) / n, "count"});
    out->push_back({"reliability.overhead_s", faulty - clean, "s"});
    out->push_back({"reliability.transmit_s", per_pass(ctx, d, "reliability.transmit"), "s"});
    const auto count = [&](const char* metric, double v) {
      out->push_back({metric, v / n, "count"});
    };
    count("reliability.blocks_total", static_cast<double>(retry_.blocks_total));
    count("reliability.blocks_retried", static_cast<double>(retry_.blocks_retried));
    out->push_back({"reliability.retry_ratio",
                    retry_.blocks_total > 0 ? static_cast<double>(retry_.blocks_retried) /
                                                  static_cast<double>(retry_.blocks_total)
                                            : 0.0,
                    "ratio"});
    count("reliability.slots_replayed", static_cast<double>(retry_.slots_replayed));
    count("reliability.corrected_bits", static_cast<double>(retry_.corrected_bits));
    count("reliability.words_corrupted", static_cast<double>(words_corrupted_));
    out->push_back({"reliability.residual_errors", static_cast<double>(residual_), "count"});
    sim_.emit(n, out);
  }

 private:
  std::uint64_t butterflies_ = 0;
  psync::reliability::RetryReport retry_;
  std::uint64_t words_corrupted_ = 0;
  std::uint64_t residual_ = 0;
  SimTotals sim_;
};

// --- dist_sweep -----------------------------------------------------------

class DistSweep final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "dist_sweep"; }
  // Two workers; the leader mostly waits on their heartbeats.
  [[nodiscard]] int cores() const override { return 2; }

 protected:
  void setup(const BenchOptions& opts) override {
    dir_.reset();
    dir_ = std::make_unique<TempDir>(opts.work_dir, "dist");
    spec_ = spec_from_ini(
        "[experiment]\nkind = fft2d\nverify = true\ninput_seed = " + std::to_string(opts.seed) +
        "\n[machine]\nrows = 128\ncols = 128\nwaveguide_gbps = 320\n"
        "[sweep]\nprocessors = 8 16 32 64\nblocks = 1 2 4 8\n");
    frozen_ = Session::freeze(spec_);
    // The serial in-process render every distributed merge must equal.
    reference_ = render_digest(Session().run(spec_));
    (void)run_once(nullptr);
  }

  PassResult pass(Tracer* tr) override { return run_once(tr); }

  [[nodiscard]] std::uint64_t last_digest() const override { return digest_; }

  void finish(RunData* out) override {
    for (std::size_t i = 0; i < errors_.size() && i < 5; ++i) out->errors.push_back(errors_[i]);
  }

 public:
  void layer_metrics(const RunContext& ctx, const RunData& d, Metrics* out) override {
    host_metrics(ctx, d, out);
    const double run = per_pass(ctx, d, "dist.run");
    const double inproc = per_pass(ctx, d, "dist.inproc");
    const double n = static_cast<double>(std::max<std::size_t>(1, d.traced_pass_s.size()));
    out->push_back({"dist.run_s", run, "s"});
    out->push_back({"dist.inproc_s", inproc, "s"});
    out->push_back({"dist.speedup", run > 0 ? inproc / run : 0.0, "ratio"});
    out->push_back({"dist.merge_ms", per_pass(ctx, d, "dist.merge") * 1e3, "ms"});
    out->push_back({"dist.worker_cpu_s", worker_cpu_s_ / n, "s"});
    out->push_back({"driver.points_executed", static_cast<double>(frozen_.points.size()), "count"});
  }

 private:
  PassResult run_once(Tracer* tr) {
    PassResult r;
    const std::string pass_dir = dir_->path() + "/p" + std::to_string(pass_no_++);
    ::mkdir(pass_dir.c_str(), 0755);
    psync::dist::SupervisorOptions opts;
    opts.workers = 2;
    opts.journal_base = pass_dir + "/shard";
    SweepResult result;
    try {
      const double cpu0 = cpu_times().children_s;
      {
        Tracer::Scope s(tr, "dist.run");
        result = psync::dist::run_distributed(spec_, opts);
      }
      if (tr != nullptr) worker_cpu_s_ += cpu_times().children_s - cpu0;
      digest_ = render_digest(result);
      if (tr != nullptr) {
        std::size_t merged = 0;
        {
          Tracer::Scope s(tr, "dist.merge");
          merged = psync::dist::merge_journals(frozen_.points, spec_.workload,
                                               psync::list_journal_files(pass_dir))
                       .records.size();
        }
        auto inproc = spec_;
        inproc.journal_path = pass_dir + "/inproc.jsonl";
        std::uint64_t inproc_digest = 0;
        {
          Tracer::Scope s(tr, "dist.inproc");
          inproc_digest = render_digest(Session().run(inproc));
        }
        if (merged != frozen_.points.size() || inproc_digest != reference_) {
          ++r.failed;
          errors_.push_back("dist_sweep: merge replay or journaled in-process run differs");
        }
      }
    } catch (const std::exception& e) {
      ++r.failed;
      errors_.push_back(std::string("dist_sweep: ") + e.what());
    }
    remove_tree(pass_dir);
    r.attempted = frozen_.points.size();
    r.points = result.records.size();
    if (!result.campaign.all_ok()) ++r.failed;
    if (digest_ != reference_) {
      ++r.failed;
      errors_.push_back("dist_sweep: merged render differs from the serial render");
    }
    return r;
  }

  std::unique_ptr<TempDir> dir_;
  ExperimentSpec spec_;
  FrozenSpec frozen_;
  std::uint64_t reference_ = 0;
  std::uint64_t digest_ = 0;
  std::size_t pass_no_ = 0;
  double worker_cpu_s_ = 0.0;
  std::vector<std::string> errors_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"psync_sweep", "mesh_transpose", "faulty_link", "dist_sweep", "serve_mix"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "psync_sweep") return std::make_unique<PsyncSweep>();
  if (name == "mesh_transpose") return std::make_unique<MeshTranspose>();
  if (name == "faulty_link") return std::make_unique<FaultyLink>();
  if (name == "dist_sweep") return std::make_unique<DistSweep>();
  if (name == "serve_mix") return make_serve_mix();
  return nullptr;
}

}  // namespace psync_bench
