#include "psync/driver/workload.hpp"

#include <map>
#include <mutex>
#include <sstream>

#include "psync/analysis/fft_model.hpp"
#include "psync/analysis/mesh_model.hpp"
#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/llmore/llmore.hpp"

namespace psync::driver {

void random_input(std::size_t n, std::uint64_t seed,
                  std::vector<std::complex<double>>* out) {
  Rng rng(seed);
  out->resize(n);
  for (auto& x : *out) {
    x = {rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0};
  }
}

std::vector<std::complex<double>> random_input(std::size_t n,
                                               std::uint64_t seed) {
  std::vector<std::complex<double>> v;
  random_input(n, seed, &v);
  return v;
}

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kConfigInvalid: return "config_invalid";
    case FailureKind::kSimDiverged: return "sim_diverged";
    case FailureKind::kTimeout: return "timeout";
    case FailureKind::kOomEstimateExceeded: return "oom_estimate_exceeded";
    case FailureKind::kInternalError: return "internal_error";
    case FailureKind::kWorkerCrash: return "worker_crash";
    case FailureKind::kConnectionLost: return "connection_lost";
  }
  return "?";
}

const char* to_string(PointStatus status) {
  switch (status) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kFailed: return "failed";
    case PointStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

FailureKind failure_kind_from_string(const std::string& s) {
  if (s == "config_invalid") return FailureKind::kConfigInvalid;
  if (s == "sim_diverged") return FailureKind::kSimDiverged;
  if (s == "timeout") return FailureKind::kTimeout;
  if (s == "oom_estimate_exceeded") return FailureKind::kOomEstimateExceeded;
  if (s == "internal_error") return FailureKind::kInternalError;
  if (s == "worker_crash") return FailureKind::kWorkerCrash;
  if (s == "connection_lost") return FailureKind::kConnectionLost;
  throw SimulationError("unknown failure kind: " + s);
}

PointStatus point_status_from_string(const std::string& s) {
  if (s == "ok") return PointStatus::kOk;
  if (s == "failed") return PointStatus::kFailed;
  if (s == "quarantined") return PointStatus::kQuarantined;
  throw SimulationError("unknown point status: " + s);
}

double metric(const RunRecord& rec, const std::string& name) {
  for (const auto& m : rec.metrics) {
    if (m.name == name) return m.value;
  }
  throw SimulationError("RunRecord: no metric '" + name + "' in workload " +
                        rec.workload);
}

namespace {

double knob_value(const RunPoint& pt, const std::string& name,
                  double fallback) {
  for (const auto& [knob, value] : pt.knobs) {
    if (knob == name) return value;
  }
  return fallback;
}

// The P-sync machine's input for `pt`, in the scratch.
const std::vector<std::complex<double>>& machine_input(const RunPoint& pt,
                                                       core::Scratch& scratch) {
  random_input(pt.machine.matrix_rows * pt.machine.matrix_cols, pt.seed,
               &scratch.input);
  return scratch.input;
}

// The fault-free baseline of pt's machine. Its machine is gone before the
// caller builds the next one on `scratch`.
core::PsyncRunReport clean_baseline(
    const RunPoint& pt, const std::vector<std::complex<double>>& input,
    core::Scratch& scratch) {
  auto clean = pt.machine;
  clean.fault = reliability::FaultModel{};
  clean.reliability.policy = reliability::ReliabilityPolicy::kOff;
  core::PsyncMachine refm(clean, scratch);
  refm.set_cancel(pt.cancel);
  return refm.run_fft2d(input, false);
}

void add_psync_metrics(RunRecord* rec, const core::PsyncRunReport& rep,
                       bool verify) {
  rec->metrics.push_back({"total_us", rep.total_ns * 1e-3, 2});
  rec->metrics.push_back({"efficiency_pct", rep.compute_efficiency * 100.0, 1});
  rec->metrics.push_back({"gflops", rep.gflops, 2});
  rec->metrics.push_back({"energy_nj", rep.total_energy_pj() * 1e-3, 1});
  const auto pipe = core::PsyncMachine::pipeline_estimate(rep);
  rec->metrics.push_back({"frames_per_sec", pipe.frames_per_sec, 0});
  if (verify) {
    rec->metrics.push_back({"max_err", rep.max_error_vs_reference, -1});
  }
}

class Fft2dWorkload final : public Workload {
 public:
  std::string name() const override { return "fft2d"; }
  RunRecord run(const RunPoint& pt, core::Scratch& scratch) const override {
    RunRecord rec;
    const auto& input = machine_input(pt, scratch);
    core::PsyncMachine m(pt.machine, scratch);
    m.set_cancel(pt.cancel);
    rec.psync = m.run_fft2d(input, pt.verify);
    add_psync_metrics(&rec, *rec.psync, pt.verify);
    if (pt.with_mesh) {
      core::MeshMachine mm(pt.mesh);
      mm.set_cancel(pt.cancel);
      rec.mesh = mm.run_fft2d(input, pt.verify);
      rec.metrics.push_back({"mesh_total_us", rec.mesh->total_ns * 1e-3, 2});
      rec.metrics.push_back({"mesh_gflops", rec.mesh->gflops, 2});
      rec.metrics.push_back(
          {"mesh_energy_nj", rec.mesh->total_energy_pj() * 1e-3, 1});
      rec.metrics.push_back(
          {"speedup", rec.mesh->total_ns / rec.psync->total_ns, 2});
      rec.metrics.push_back({"energy_advantage",
                             rec.mesh->total_energy_pj() /
                                 rec.psync->total_energy_pj(),
                             2});
    }
    return rec;
  }
};

class Fft1dWorkload final : public Workload {
 public:
  std::string name() const override { return "fft1d"; }
  RunRecord run(const RunPoint& pt, core::Scratch& scratch) const override {
    RunRecord rec;
    const auto& input = machine_input(pt, scratch);
    core::PsyncMachine m(pt.machine, scratch);
    m.set_cancel(pt.cancel);
    rec.psync = m.run_fft1d(input, pt.verify);
    add_psync_metrics(&rec, *rec.psync, pt.verify);
    return rec;
  }
};

class TransposeWorkload final : public Workload {
 public:
  std::string name() const override { return "transpose"; }
  RunRecord run(const RunPoint& pt, core::Scratch&) const override {
    RunRecord rec;
    core::MeshMachine m(pt.mesh);
    m.set_cancel(pt.cancel);
    rec.transpose = m.run_transpose_writeback(pt.transpose_elements);
    rec.metrics.push_back(
        {"cycles", static_cast<double>(rec.transpose->completion_cycle), 0});
    rec.metrics.push_back(
        {"cycles_per_element", rec.transpose->cycles_per_element, 2});
    rec.metrics.push_back(
        {"elements", static_cast<double>(rec.transpose->elements), 0});
    return rec;
  }
};

class PipelineWorkload final : public Workload {
 public:
  std::string name() const override { return "pipeline"; }
  RunRecord run(const RunPoint& pt, core::Scratch& scratch) const override {
    RunRecord rec;
    const auto& input = machine_input(pt, scratch);
    core::PsyncMachine m(pt.machine, scratch);
    m.set_cancel(pt.cancel);
    rec.psync = m.run_fft2d(input, false);
    rec.pipeline = core::PsyncMachine::pipeline_estimate(*rec.psync);
    rec.metrics.push_back({"latency_us", rec.pipeline->latency_ns * 1e-3, 2});
    rec.metrics.push_back({"interval_us", rec.pipeline->interval_ns * 1e-3, 2});
    rec.metrics.push_back({"frames_per_sec", rec.pipeline->frames_per_sec, 0});
    rec.metrics.push_back(
        {"bus_bound", rec.pipeline->bus_bound ? 1.0 : 0.0, 0});
    return rec;
  }
};

class MeshWorkload final : public Workload {
 public:
  std::string name() const override { return "mesh"; }
  RunRecord run(const RunPoint& pt, core::Scratch& scratch) const override {
    RunRecord rec;
    random_input(pt.mesh.matrix_rows * pt.mesh.matrix_cols, pt.seed,
                 &scratch.input);
    const auto& input = scratch.input;
    core::MeshMachine m(pt.mesh);
    m.set_cancel(pt.cancel);
    rec.mesh = m.run_fft2d(input, pt.verify);
    rec.metrics.push_back({"total_us", rec.mesh->total_ns * 1e-3, 2});
    rec.metrics.push_back({"gflops", rec.mesh->gflops, 2});
    rec.metrics.push_back(
        {"energy_nj", rec.mesh->total_energy_pj() * 1e-3, 1});
    if (pt.verify) {
      rec.metrics.push_back({"max_err", rec.mesh->max_error_vs_reference, -1});
    }
    return rec;
  }
};

// Reliability cliff point: the configured policy under injected faults,
// costed against a clean fault-free baseline of the same machine. Each
// point carries its own baseline so points stay independent (the sweep can
// run them on any thread in any order).
class ReliabilityWorkload final : public Workload {
 public:
  std::string name() const override { return "reliability"; }
  RunRecord run(const RunPoint& pt, core::Scratch& scratch) const override {
    RunRecord rec;
    const auto& input = machine_input(pt, scratch);
    const core::PsyncRunReport ref = clean_baseline(pt, input, scratch);

    core::PsyncMachine m(pt.machine, scratch);
    m.set_cancel(pt.cancel);
    rec.psync = m.run_fft2d(input);
    const auto& rep = *rec.psync;
    rec.metrics.push_back({"ber", pt.machine.fault.random_ber, -1});
    rec.metrics.push_back(
        {"retried", static_cast<double>(rep.retry.blocks_retried), 0});
    rec.metrics.push_back(
        {"residual", static_cast<double>(rep.retry.residual_errors), 0});
    rec.metrics.push_back({"max_err", rep.max_error_vs_reference, -1});
    rec.metrics.push_back(
        {"overhead_us", rep.reliability_overhead_ns * 1e-3, 2});
    rec.metrics.push_back(
        {"overhead_nj",
         (rep.total_energy_pj() - ref.total_energy_pj()) * 1e-3, 2});
    rec.metrics.push_back({"total_us", rep.total_ns * 1e-3, 2});
    rec.metrics.push_back({"baseline_us", ref.total_ns * 1e-3, 2});
    return rec;
  }
};

// Degradation sweep point (satellite of the crash-safe-campaign PR): the
// configured policy under a *time-varying* fault profile — a thermal-drift
// BER ramp and/or a brownout window (FaultModel's profile fields) — costed
// against a clean fault-free baseline of the same machine. The natural
// sweep axis is drift_ber_per_mword or brownout_ber; a steep enough ramp
// drives the channel past its retry budget, which is exactly the regime
// the campaign layer's isolation exists for.
class DegradationSweepWorkload final : public Workload {
 public:
  std::string name() const override { return "degradation_sweep"; }
  RunRecord run(const RunPoint& pt, core::Scratch& scratch) const override {
    RunRecord rec;
    const auto& input = machine_input(pt, scratch);
    const core::PsyncRunReport ref = clean_baseline(pt, input, scratch);

    core::PsyncMachine m(pt.machine, scratch);
    m.set_cancel(pt.cancel);
    rec.psync = m.run_fft2d(input);
    const auto& rep = *rec.psync;
    rec.metrics.push_back(
        {"drift_per_mword", pt.machine.fault.drift_ber_per_mword, -1});
    rec.metrics.push_back(
        {"corrupted", static_cast<double>(rep.fault.words_corrupted), 0});
    rec.metrics.push_back(
        {"retried", static_cast<double>(rep.retry.blocks_retried), 0});
    rec.metrics.push_back(
        {"residual", static_cast<double>(rep.retry.residual_errors), 0});
    rec.metrics.push_back({"max_err", rep.max_error_vs_reference, -1});
    rec.metrics.push_back(
        {"overhead_us", rep.reliability_overhead_ns * 1e-3, 2});
    rec.metrics.push_back({"total_us", rep.total_ns * 1e-3, 2});
    rec.metrics.push_back({"baseline_us", ref.total_ns * 1e-3, 2});
    return rec;
  }
};

// Fig. 11 point: compute efficiency vs delivery blocks k for the
// zero-latency bound (Table I) and the latency-burdened mesh (Table II) —
// identical values to analysis::fig11, dispatched per point so the bench
// sweep rides the same driver as every other experiment.
class Fig11Workload final : public Workload {
 public:
  std::string name() const override { return "fig11"; }
  RunRecord run(const RunPoint& pt, core::Scratch&) const override {
    RunRecord rec;
    const std::uint64_t k = pt.machine.delivery_blocks;
    const analysis::FftWorkload w;
    const analysis::MeshDeliveryParams mesh;
    rec.metrics.push_back(
        {"psync_eta", analysis::table1_row(w, k).efficiency, 4});
    rec.metrics.push_back(
        {"mesh_eta", analysis::table2_row(w, k, mesh).compute_efficiency, 4});
    return rec;
  }
};

// Fig. 13/14 point: LLMORE-style phase simulation at `cores`.
class Fig13Workload final : public Workload {
 public:
  std::string name() const override { return "fig13"; }
  RunRecord run(const RunPoint& pt, core::Scratch&) const override {
    RunRecord rec;
    const auto cores =
        static_cast<std::uint64_t>(knob_value(pt, kCoresKnob, 4.0));
    const llmore::LlmoreParams p;
    const auto point = llmore::simulate_point(p, cores);
    rec.metrics.push_back({"gflops_mesh", point.gflops_mesh, 2});
    rec.metrics.push_back({"gflops_psync", point.gflops_psync, 2});
    rec.metrics.push_back({"gflops_ideal", point.gflops_ideal, 2});
    rec.metrics.push_back({"reorg_frac_mesh", point.reorg_frac_mesh, 4});
    rec.metrics.push_back({"reorg_frac_psync", point.reorg_frac_psync, 4});
    return rec;
  }
};

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Workload>> workloads;
};

Registry& registry() {
  // Leaked: sweep threads may touch the registry during static teardown.
  static Registry* r = [] {
    auto* reg = new Registry();
    reg->workloads["fft2d"] = std::make_unique<Fft2dWorkload>();
    reg->workloads["fft1d"] = std::make_unique<Fft1dWorkload>();
    reg->workloads["transpose"] = std::make_unique<TransposeWorkload>();
    reg->workloads["pipeline"] = std::make_unique<PipelineWorkload>();
    reg->workloads["mesh"] = std::make_unique<MeshWorkload>();
    reg->workloads["reliability"] = std::make_unique<ReliabilityWorkload>();
    reg->workloads["degradation_sweep"] =
        std::make_unique<DegradationSweepWorkload>();
    reg->workloads["fig11"] = std::make_unique<Fig11Workload>();
    reg->workloads["fig13"] = std::make_unique<Fig13Workload>();
    return reg;
  }();
  return *r;
}

}  // namespace

void register_workload(std::unique_ptr<Workload> w) {
  PSYNC_CHECK(w != nullptr);
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.workloads[w->name()] = std::move(w);
}

const Workload& find_workload(const std::string& name) {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.workloads.find(name);
  if (it == r.workloads.end()) {
    std::ostringstream os;
    os << "unknown workload '" << name << "'; known kinds:";
    for (const auto& [known, w] : r.workloads) os << ' ' << known;
    throw SimulationError(os.str());
  }
  return *it->second;
}

std::vector<std::string> workload_names() {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  for (const auto& [name, w] : r.workloads) names.push_back(name);
  return names;
}

}  // namespace psync::driver
