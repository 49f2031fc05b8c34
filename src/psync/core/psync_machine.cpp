#include "psync/core/psync_machine.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "psync/common/check.hpp"
#include "psync/fft/fft.hpp"
#include "psync/fft/fft2d.hpp"
#include "psync/fft/four_step.hpp"
#include "psync/fft/plan_cache.hpp"

namespace psync::core {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t ilog2(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

std::size_t reverse_bits(std::size_t v, std::size_t bits) {
  std::size_t r = 0;
  for (std::size_t b = 0; b < bits; ++b) {
    r |= ((v >> b) & 1U) << (bits - 1 - b);
  }
  return r;
}

// fft::normalized_max_error(result(), ref) without materializing result():
// the same scan over the image's words, unpacked on the fly.
double image_error(const std::vector<Word>& image,
                   std::span<const std::complex<double>> ref) {
  PSYNC_CHECK(image.size() == ref.size());
  const double diff = fft::max_modulus(image.size(), [&](std::size_t i) {
    return unpack_sample(image[i]) - ref[i];
  });
  return diff / std::max(1e-30, fft::max_abs(ref));
}

photonic::ClockParams clock_of(const PsyncMachineParams& p) {
  photonic::ClockParams c;
  // One slot carries one sample word across the WDM group.
  c.frequency_ghz = slot_clock(GigabitsPerSec(p.waveguide_gbps),
                               static_cast<double>(p.sample_bits));
  return c;
}

}  // namespace

const Phase& PsyncRunReport::phase(const std::string& name) const {
  for (const auto& p : phases) {
    if (p.name == name) return p;
  }
  throw SimulationError("PsyncRunReport: no phase named " + name);
}

// Binds scratch_ to own_ before own_ is built; nothing reads it until the
// delegated constructor's body, by which time own_ exists.
PsyncMachine::PsyncMachine(PsyncMachineParams params)
    : PsyncMachine(std::move(params), own_) {}

PsyncMachine::PsyncMachine(PsyncMachineParams params, Scratch& scratch)
    : scratch_(&scratch),
      params_(params),
      topo_(straight_bus_topology(params.processors, params.bus_length_cm,
                                  clock_of(params))),
      engine_(topo_),
      head_(params.head) {
  const auto& p = params_;
  if (p.processors == 0) throw ConfigError("PsyncMachine: no processors");
  if (!is_pow2(p.matrix_rows) || !is_pow2(p.matrix_cols)) {
    throw ConfigError("PsyncMachine: matrix dims must be powers of two");
  }
  if (p.matrix_rows % p.processors != 0 || p.matrix_cols % p.processors != 0) {
    throw ConfigError(
        "PsyncMachine: processor count must divide both matrix dimensions");
  }
  if (!is_pow2(p.delivery_blocks) ||
      p.delivery_blocks > std::min(p.matrix_cols, p.matrix_rows)) {
    throw ConfigError(
        "PsyncMachine: delivery_blocks must be a power of two <= both dims");
  }
  procs_.reserve(p.processors);
  for (std::size_t i = 0; i < p.processors; ++i) {
    procs_.emplace_back(static_cast<std::uint32_t>(i), p.exec);
  }
  head_.image().swap(scratch_->image);
}

PsyncMachine::~PsyncMachine() { head_.image().swap(scratch_->image); }

std::span<std::complex<double>> PsyncMachine::local_mem(std::size_t i) const {
  PSYNC_CHECK(i < params_.processors);
  const std::size_t per = scratch_->proc.size() / params_.processors;
  return std::span(scratch_->proc).subspan(i * per, per);
}

double PsyncMachine::slot_period_ns() const {
  return static_cast<double>(engine_.clock().period_ps()) * 1e-3;
}

double PsyncMachine::begin_run(std::vector<Phase>* phases) {
  if (cancel_ != nullptr) cancel_->poll();
  collisions_ = 0;
  gap_free_ = true;
  waveguide_words_ = 0;
  fault_report_ = {};
  retry_report_ = {};
  overhead_slots_ = 0;
  head_.clear_retry_log();
  for (auto& proc : procs_) {
    proc = Processor(proc.id(), params_.exec);
  }
  // Every pass rewrites all of it.
  scratch_->proc.resize(params_.matrix_rows * params_.matrix_cols);

  channel_.reset();
  const bool want_channel =
      params_.reliability.policy != reliability::ReliabilityPolicy::kOff ||
      !params_.fault.trivial();
  if (!want_channel) return 0.0;
  channel_ = std::make_unique<reliability::ProtectedChannel>(
      params_.fault, params_.reliability);

  const std::uint64_t cal = channel_->calibration_slots();
  if (cal == 0) return 0.0;
  // The training burst occupies the bus before any collective may start.
  Phase p_cal{"lane_training", 0.0,
              static_cast<double>(cal) * slot_period_ns()};
  phases->push_back(p_cal);
  waveguide_words_ += cal;
  overhead_slots_ += cal;
  return p_cal.end_ns;
}

void PsyncMachine::transmit(std::vector<Word>* words,
                            const std::vector<Collision>* collisions,
                            bool gather_side, double* tail_ns) {
  *tail_ns = 0.0;
  if (channel_ == nullptr) {
    waveguide_words_ += words->size();
    return;
  }
  std::vector<std::int64_t> flagged;
  if (collisions != nullptr) {
    for (const auto& c : *collisions) {
      flagged.push_back(c.slot_a);
      flagged.push_back(c.slot_b);
    }
  }
  auto tx = channel_->transmit(*words, flagged.empty() ? nullptr : &flagged,
                               std::move(scratch_->delivered));
  waveguide_words_ += tx.wire_words;
  fault_report_.merge(tx.fault);
  retry_report_.merge(tx.retry);
  overhead_slots_ += tx.overhead_slots();
  *tail_ns = static_cast<double>(tx.overhead_slots()) * slot_period_ns();
  if (gather_side) head_.log_retry(tx.retry);
  scratch_->delivered = std::move(*words);
  *words = std::move(tx.words);
}

PsyncMachine::PassResult PsyncMachine::scatter_fft_pass(
    const std::vector<Word>& image, std::size_t rows, std::size_t cols,
    double start_ns, Phase& scatter_phase, Phase& fft_phase) {
  const std::size_t P = params_.processors;
  const std::size_t k = params_.delivery_blocks;
  const std::size_t rpp = rows / P;
  const std::size_t bs = cols / k;        // block size in samples
  const std::size_t B = rpp * bs;         // samples per proc per round
  const std::size_t log2k = ilog2(k);
  const std::size_t log2bs = ilog2(bs);
  PSYNC_CHECK(image.size() == rows * cols);
  if (cancel_ != nullptr) cancel_->poll();

  const CpSchedule sched = compile_scatter_round_robin(
      P, static_cast<Slot>(k), static_cast<Slot>(B));

  // Burst in slot order: round j, then processor i, then its rows r, then
  // position pos within the row's block. Block contents stream in
  // bit-reversed-strided order so each block's local sub-FFT can run on
  // arrival (Model II, Fig. 10): column bitrev(j) + k * bitrev(pos).
  std::vector<std::size_t> strided_col(bs);
  for (std::size_t pos = 0; pos < bs; ++pos) {
    strided_col[pos] = k * reverse_bits(pos, log2bs);
  }
  Scratch& scr = *scratch_;
  std::vector<Word>& burst = scr.stream;
  burst.resize(rows * cols);
  std::size_t s = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t col0 = reverse_bits(j, log2k);
    for (std::size_t row = 0; row < rows; ++row) {  // row = i * rpp + r
      const Word* src = image.data() + row * cols + col0;
      for (std::size_t pos = 0; pos < bs; ++pos) {
        burst[s++] = src[strided_col[pos]];
      }
    }
  }

  // The words cross the faulty PHY under the reliability policy; `tail_ns`
  // is the bus time the coding slots, replays and backoff appended. A
  // block is only usable once its framing (and any replay) resolved, so
  // the tail conservatively delays every block's ready time.
  double tail_ns = 0.0;
  transmit(&burst, nullptr, false, &tail_ns);
  NodeWords& received = scr.node;
  const ScatterWords sc =
      engine_.scatter_words(sched, burst, &received, &scr.sca);

  // Processor i's listen entry j is round j: B words, row r's block-j
  // positions for r = 0..rpp-1 in turn. The block is ready once its last
  // slot latched, B - 1 periods after its first.
  const TimePs last_slot_ps =
      static_cast<TimePs>(B - 1) * engine_.clock().period_ps();
  std::vector<std::vector<double>> block_done(P, std::vector<double>(k));
  PassResult out;
  out.delivery_end_ns = start_ns;
  for (std::size_t i = 0; i < P; ++i) {
    PSYNC_CHECK(sc.latch(i).size() == k &&
                received.node(i).size() == k * B);
    // Every element lands in exactly one place, so no clearing first.
    const std::span<std::complex<double>> data = local_mem(i);
    PSYNC_CHECK(data.size() == rpp * cols);
    const Word* word = received.node(i).data();
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t r = 0; r < rpp; ++r) {
        std::complex<double>* dst = data.data() + r * cols + j * bs;
        for (std::size_t pos = 0; pos < bs; ++pos) {
          dst[pos] = unpack_sample(*word++);
        }
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      const double at =
          start_ns +
          static_cast<double>(sc.latch(i)[j] + last_slot_ps) * 1e-3 +
          tail_ns;
      block_done[i][j] = std::max(start_ns, at);
      out.delivery_end_ns = std::max(out.delivery_end_ns, at);
    }
  }

  const fft::FftPlan& plan = fft::shared_plan(cols);
  out.compute_begin_ns = block_done[0][0];
  out.compute_end_ns = start_ns;
  for (std::size_t i = 0; i < P; ++i) {
    // Cycle-batch boundary: one poll per processor's compute pass.
    if (cancel_ != nullptr) cancel_->poll();
    const std::span<std::complex<double>> mem = local_mem(i);
    double cursor = start_ns;
    for (std::size_t j = 0; j < k; ++j) {
      cursor = std::max(cursor, block_done[i][j]);
      for (std::size_t r = 0; r < rpp; ++r) {
        const double ns =
            procs_[i].fft_row_stages(mem, plan, r, cols, 0, log2bs, j * bs, bs);
        cursor += ns;
        out.busy_ns += ns;
      }
    }
    for (std::size_t r = 0; r < rpp; ++r) {
      const double ns =
          procs_[i].fft_row_stages(mem, plan, r, cols, log2bs, log2bs + log2k);
      cursor += ns;
      out.busy_ns += ns;
    }
    out.compute_end_ns = std::max(out.compute_end_ns, cursor);
  }

  scatter_phase.start_ns = start_ns;
  scatter_phase.end_ns = out.delivery_end_ns;
  fft_phase.start_ns = out.compute_begin_ns;
  fft_phase.end_ns = out.compute_end_ns;
  return out;
}

double PsyncMachine::gather_to_dram(const CpSchedule& sched, double start_ns,
                                    Phase& phase) {
  if (cancel_ != nullptr) cancel_->poll();
  Scratch& s = *scratch_;
  const GatherSummary g =
      engine_.gather_words(sched, s.node, &s.stream, &s.sca);
  collisions_ += g.collisions.size();
  gap_free_ = gap_free_ && g.gap_free;
  // The head node decodes the landed stream; collision-flagged or CRC-bad
  // blocks are re-requested from the array, extending the phase.
  double tail_ns = 0.0;
  transmit(&s.stream, &g.collisions, /*gather_side=*/true, &tail_ns);
  const StreamReport rep = head_.writeback(s.stream, 0, params_.sample_bits);
  const double span_ns = static_cast<double>(g.span_ps) * 1e-3 + tail_ns;
  const double dur = std::max(span_ns, rep.dram_ns);
  phase.start_ns = start_ns;
  phase.end_ns = start_ns + dur;
  return phase.end_ns;
}

double PsyncMachine::reorg_and_second_pass(std::size_t rows, std::size_t cols,
                                           double pass1_end,
                                           std::vector<Phase>& phases,
                                           double* reorg_ns,
                                           PassResult* pass2_out) {
  const std::size_t P = params_.processors;
  const std::size_t rpp = rows / P;
  const std::size_t cpp = cols / P;

  // ---- Transpose SCA gather ----
  Phase p_tr{"sca_transpose", 0, 0};
  {
    const CpSchedule sched = compile_gather_transpose(
        P, static_cast<Slot>(rpp), static_cast<Slot>(cols));
    NodeWords& node_data = scratch_->node;
    node_data.resize_equal(P, rpp * cols);
    for (std::size_t i = 0; i < P; ++i) {
      const std::complex<double>* mem = local_mem(i).data();
      Word* out = node_data.node(i).data();
      for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rpp; ++r) {
          out[c * rpp + r] = pack_sample(mem[r * cols + c]);
        }
      }
    }
    gather_to_dram(sched, pass1_end, p_tr);
  }

  // ---- Second pass: the image is now (cols x rows) row-major ----
  Phase p_sc2{"scatter_cols", 0, 0};
  Phase p_fft2{"col_ffts", 0, 0};
  const PassResult pass2 =
      scatter_fft_pass(head_.image(), cols, rows, p_tr.end_ns, p_sc2, p_fft2);
  if (pass2_out != nullptr) *pass2_out = pass2;

  // ---- Final writeback (block gather of the cols x rows result) ----
  Phase p_wb{"sca_writeback", 0, 0};
  {
    const CpSchedule sched =
        compile_gather_blocks(P, static_cast<Slot>(cpp * rows));
    NodeWords& node_data = scratch_->node;
    node_data.resize_equal(P, cpp * rows);
    for (std::size_t i = 0; i < P; ++i) {
      const std::complex<double>* mem = local_mem(i).data();
      Word* out = node_data.node(i).data();
      for (std::size_t e = 0; e < cpp * rows; ++e) out[e] = pack_sample(mem[e]);
    }
    gather_to_dram(sched, pass2.compute_end_ns, p_wb);
  }

  phases.push_back(p_tr);
  phases.push_back(p_sc2);
  phases.push_back(p_fft2);
  phases.push_back(p_wb);
  *reorg_ns = p_tr.duration_ns() + p_sc2.duration_ns();
  return p_wb.end_ns;
}

namespace {

void finish_report(PsyncRunReport* report, const std::vector<Processor>& procs,
                   std::size_t processors, double total_ns,
                   std::uint64_t collisions, bool gap_free) {
  report->total_ns = total_ns;
  report->sca_collisions = collisions;
  report->sca_gap_free = gap_free;

  fft::OpCount total_ops;
  double busy = 0.0;
  for (const auto& proc : procs) {
    total_ops += proc.ops();
    busy += proc.busy_ns();
  }
  // Flop accounting: the kernels track real multiplies and adds exactly
  // (a radix-2 butterfly is 4 + 6, a twiddle scaling 4 + 2).
  report->flops = total_ops.real_mults + total_ops.real_adds;
  report->gflops =
      total_ns > 0 ? static_cast<double>(report->flops) / total_ns : 0.0;
  report->compute_efficiency =
      total_ns > 0 ? busy / (static_cast<double>(processors) * total_ns) : 0.0;
}

}  // namespace

void PsyncMachine::apply_energy(PsyncRunReport* report) const {
  const photonic::PhotonicEnergyBreakdown e = photonic::pscan_energy_per_bit(
      params_.photonics, params_.processors);
  const double bits = static_cast<double>(waveguide_words_) *
                      static_cast<double>(params_.sample_bits);
  report->comm_energy_pj = (bits * e.total_pj_per_bit()).value();
  fft::OpCount ops;
  for (const auto& proc : procs_) ops += proc.ops();
  report->compute_energy_pj = params_.exec.compute_energy_pj(ops);
}

void PsyncMachine::apply_reliability(PsyncRunReport* report) const {
  report->fault = fault_report_;
  report->retry = retry_report_;
  if (channel_ != nullptr) report->lanes = channel_->lanes();
  report->reliability_overhead_slots = overhead_slots_;
  report->reliability_overhead_ns =
      static_cast<double>(overhead_slots_) * slot_period_ns();
}

PsyncRunReport PsyncMachine::run_fft2d(
    const std::vector<std::complex<double>>& input, bool verify) {
  const std::size_t P = params_.processors;
  const std::size_t R = params_.matrix_rows;
  const std::size_t C = params_.matrix_cols;
  PSYNC_CHECK(input.size() == R * C);

  PsyncRunReport report;
  const double t0 = begin_run(&report.phases);

  head_.image().resize(R * C);
  for (std::size_t i = 0; i < input.size(); ++i) {
    head_.image()[i] = pack_sample(input[i]);
  }

  Phase p_sc1{"scatter_rows", 0, 0};
  Phase p_fft1{"row_ffts", 0, 0};
  const PassResult pass1 =
      scatter_fft_pass(head_.image(), R, C, t0, p_sc1, p_fft1);
  report.phases.push_back(p_sc1);
  report.phases.push_back(p_fft1);

  const double end = reorg_and_second_pass(R, C, pass1.compute_end_ns,
                                           report.phases, &report.reorg_ns,
                                           nullptr);
  finish_report(&report, procs_, P, end, collisions_, gap_free_);
  apply_energy(&report);
  apply_reliability(&report);

  if (verify) {
    // The processors' memories are dead after the final writeback.
    std::vector<std::complex<double>>& ref = scratch_->proc;
    ref.assign(input.begin(), input.end());
    fft::fft2d(ref, R, C, /*restore_layout=*/false, &scratch_->fft);
    report.max_error_vs_reference = image_error(head_.image(), ref);
  }
  return report;
}

PsyncRunReport PsyncMachine::run_fft1d(
    const std::vector<std::complex<double>>& input, bool verify) {
  const std::size_t P = params_.processors;
  const std::size_t R = params_.matrix_rows;  // four-step row count
  const std::size_t C = params_.matrix_cols;  // four-step column count
  const std::size_t N = R * C;
  PSYNC_CHECK(input.size() == N);

  PsyncRunReport report;
  const double t0 = begin_run(&report.phases);

  // DRAM holds x in natural order; the head node's CP streams the strided
  // four-step view M[r][c] = x[c*R + r] (the strided access is the head
  // node's job, not the processors'). Nothing reads the natural-order
  // image before the transpose gather lands over it, so the image holds
  // the view directly.
  std::vector<Word>& view = head_.image();
  view.resize(N);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      view[r * C + c] = pack_sample(input[c * R + r]);
    }
  }

  Phase p_sc1{"scatter_rows", 0, 0};
  Phase p_fft1{"row_ffts", 0, 0};
  const PassResult pass1 = scatter_fft_pass(view, R, C, t0, p_sc1, p_fft1);
  report.phases.push_back(p_sc1);
  report.phases.push_back(p_fft1);

  // ---- Twiddle scaling, entirely node-local ----
  Phase p_tw{"twiddle", pass1.compute_end_ns, pass1.compute_end_ns};
  const std::size_t rpp = R / P;
  double tw_max = 0.0;
  for (std::size_t i = 0; i < P; ++i) {
    tw_max = std::max(
        tw_max,
        procs_[i].apply_four_step_twiddles(local_mem(i), rpp, C, i * rpp, R));
  }
  p_tw.end_ns = p_tw.start_ns + tw_max;
  report.phases.push_back(p_tw);

  const double end = reorg_and_second_pass(R, C, p_tw.end_ns, report.phases,
                                           &report.reorg_ns, nullptr);
  finish_report(&report, procs_, P, end, collisions_, gap_free_);
  apply_energy(&report);
  apply_reliability(&report);

  if (verify) {
    // The processors' memories are dead after the final writeback.
    std::vector<std::complex<double>>& ref = scratch_->proc;
    ref.assign(input.begin(), input.end());
    const fft::FftPlan& plan = fft::shared_plan(N);
    plan.forward(ref);
    report.max_error_vs_reference = fft::normalized_max_error(result_1d(), ref);
  }
  return report;
}

PsyncMachine::PipelineReport PsyncMachine::pipeline_estimate(
    const PsyncRunReport& run) {
  PipelineReport rep;
  rep.latency_ns = run.total_ns;
  // Collective phases occupy the shared waveguide serially.
  for (const auto& ph : run.phases) {
    if (ph.name.rfind("scatter", 0) == 0 || ph.name.rfind("sca_", 0) == 0) {
      rep.bus_busy_ns += ph.duration_ns();
    }
  }
  // Per-processor compute obligation per frame: the run's total busy time
  // divided across the array (compute phases' wall windows include Model I
  // delivery stagger, which pipelining hides).
  rep.compute_busy_ns = run.compute_efficiency * run.total_ns;
  rep.interval_ns = std::max(rep.bus_busy_ns, rep.compute_busy_ns);
  rep.bus_bound = rep.bus_busy_ns >= rep.compute_busy_ns;
  rep.frames_per_sec =
      rep.interval_ns > 0.0 ? 1e9 / rep.interval_ns : 0.0;
  return rep;
}

std::vector<std::complex<double>> PsyncMachine::result() const {
  std::vector<std::complex<double>> out;
  out.reserve(head_.image().size());
  for (Word w : head_.image()) out.push_back(unpack_sample(w));
  return out;
}

std::vector<std::complex<double>> PsyncMachine::result_1d() const {
  // The final image is the pass-2 result (C x R row-major = matrix_t).
  const auto mt = result();
  return fft::four_step_store(mt, params_.matrix_rows, params_.matrix_cols);
}

}  // namespace psync::core
