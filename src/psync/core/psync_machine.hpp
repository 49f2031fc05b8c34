// The P-sync machine: a full-system functional + timing simulator of the
// architecture in paper Fig. 6/7 executing the distributed 2D FFT flow of
// Section V-B:
//
//   1. SCA^-1 scatter of the matrix from DRAM to the processor array
//      (Model I in one burst per processor block, or Model II in k
//      round-robin blocks whose contents are streamed in bit-reversed-
//      strided order so each block's sub-FFT can run on arrival),
//   2. P parallel row FFTs (interleaved with delivery under Model II),
//   3. SCA gather-transpose: the array drives the row-FFT results onto the
//      waveguide in column-major slot order; the head node lands full DRAM
//      rows (this is the paper's headline in-flight reorganization),
//   4. SCA^-1 scatter of the reorganized data back to the array,
//   5. P parallel column FFTs,
//   6. SCA writeback of the final result.
//
// Every collective runs through the slot-exact ScaEngine, so the simulator
// simultaneously (a) produces a numerically correct 2D FFT, verified
// against fft::fft2d, and (b) yields cycle-accurate phase timings that the
// analysis library's closed forms are tested against.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "psync/common/cancel.hpp"
#include "psync/core/head_node.hpp"
#include "psync/core/processor.hpp"
#include "psync/core/sca.hpp"
#include "psync/core/scratch.hpp"
#include "psync/photonic/energy.hpp"
#include "psync/reliability/channel.hpp"
#include "psync/reliability/fault_model.hpp"

namespace psync::core {

/// The benchmark harness (psync_bench) names the fault model through
/// core; everything under src/ names reliability::FaultModel.
using reliability::FaultModel;

struct PsyncMachineParams {
  std::size_t processors = 16;
  std::size_t matrix_rows = 64;   // divisible by processors
  std::size_t matrix_cols = 64;   // power of two
  std::size_t sample_bits = 64;
  /// Aggregate waveguide rate, Gb/s; one slot carries one sample, so the
  /// slot clock is waveguide_gbps / sample_bits GHz (paper: 320/64 = 5 GHz).
  double waveguide_gbps = 320.0;
  /// Model II delivery blocks per row (1 = Model I).
  std::size_t delivery_blocks = 1;
  ExecCostParams exec;
  HeadNodeParams head;
  /// Physical bus length, cm (sets flight-time latencies).
  double bus_length_cm = 8.0;
  /// Photonic device parameters for the energy accounting.
  photonic::PhotonicEnergyParams photonics;
  /// Optical fault injection applied to every word that crosses the
  /// waveguide (dead wavelengths, random BER). Trivial by default.
  reliability::FaultModel fault;
  /// Error-handling layer above the optical PHY: off / detect-only /
  /// correct+retry (SECDED+CRC framing, replay, lane failover). The coding
  /// slots, training burst, replays and backoff all show up in the run's
  /// timing and photonic energy — recovery is never free.
  reliability::ReliabilityParams reliability;
};

struct Phase {
  std::string name;
  double start_ns = 0.0;
  double end_ns = 0.0;
  double duration_ns() const { return end_ns - start_ns; }
};

struct PsyncRunReport {
  std::vector<Phase> phases;
  double total_ns = 0.0;
  /// Time in data reorganization between the two FFT passes (the SCA
  /// transpose gather plus the reload scatter) — the Fig. 14 numerator.
  double reorg_ns = 0.0;
  std::uint64_t flops = 0;        // 10 real ops per butterfly
  double gflops = 0.0;
  /// Realized / peak multiply throughput across the array (paper Eq. 4).
  double compute_efficiency = 0.0;
  /// Every SCA stream arrived gap-free with zero collisions.
  bool sca_gap_free = false;
  std::uint64_t sca_collisions = 0;
  /// Max |result - reference| against a monolithic fft::fft2d.
  double max_error_vs_reference = 0.0;

  /// Fault injection observed on the wire (all collectives of the run).
  reliability::FaultReport fault;
  /// Recovery outcomes: blocks retried, slots replayed, residual errors.
  reliability::RetryReport retry;
  /// Dead-lane scan + failover outcome.
  reliability::LaneReport lanes;
  /// Bus time spent on reliability (code slots, training, replays,
  /// backoff) and the same quantity in slots.
  double reliability_overhead_ns = 0.0;
  std::uint64_t reliability_overhead_slots = 0;

  /// Energy accounting (extension experiment): photonic transport energy
  /// for every word moved across the waveguide, and execution-unit energy
  /// for every arithmetic operation.
  double comm_energy_pj = 0.0;
  double compute_energy_pj = 0.0;
  double total_energy_pj() const { return comm_energy_pj + compute_energy_pj; }
  double pj_per_flop() const {
    return flops > 0 ? total_energy_pj() / static_cast<double>(flops) : 0.0;
  }

  const Phase& phase(const std::string& name) const;
};

class PsyncMachine {
 public:
  /// A machine that runs out of a Scratch of its own.
  explicit PsyncMachine(PsyncMachineParams params);
  /// A machine that runs out of `scratch` (see core/scratch.hpp for the
  /// ownership rule): it takes the head image when built and returns it
  /// when destroyed. `scratch` must outlive it. For the run to allocate
  /// nothing, build a scratch's next machine only after the previous one is
  /// gone.
  PsyncMachine(PsyncMachineParams params, Scratch& scratch);
  ~PsyncMachine();

  // scratch_ may point at own_.
  PsyncMachine(const PsyncMachine&) = delete;
  PsyncMachine& operator=(const PsyncMachine&) = delete;

  const PsyncMachineParams& params() const { return params_; }
  const PscanTopology& topology() const { return topo_; }

  /// Run the full 2D FFT flow on `input` (row-major rows x cols). The
  /// machine's DRAM image ends with the transform in transposed layout.
  /// When `verify` is set the result is checked against fft::fft2d and the
  /// max deviation reported (float32 transport quantizes samples, so the
  /// tolerance is single-precision).
  PsyncRunReport run_fft2d(const std::vector<std::complex<double>>& input,
                           bool verify = true);

  /// Run a large 1D FFT of matrix_rows * matrix_cols points via Bailey's
  /// four-step decomposition (the paper's Section II argument that the 2D
  /// machinery generalizes to 1D): strided scatter -> pass-1 FFTs ->
  /// on-node twiddle scaling -> SCA transpose -> pass-2 FFTs -> writeback.
  /// Use result_1d() for the natural-order output. Verification compares
  /// against a monolithic N-point FftPlan.
  PsyncRunReport run_fft1d(const std::vector<std::complex<double>>& input,
                           bool verify = true);

  /// Natural-order 1D spectrum after run_fft1d.
  std::vector<std::complex<double>> result_1d() const;

  /// Steady-state throughput of a continuous stream of transforms (frame
  /// after frame), derived from a single run's phase timings. With double-
  /// buffered node memories, successive frames pipeline: the waveguide is
  /// the one serially-shared resource (every collective occupies it), and
  /// each processor must finish a frame's compute before starting the
  /// next. The initiation interval is therefore
  ///     II = max(sum of collective phases, sum of compute phases)
  /// and sustained throughput is one frame per II — the machine-level form
  /// of the paper's "fusing computation with communication".
  struct PipelineReport {
    double latency_ns = 0.0;     // single-frame latency (the run's total)
    double interval_ns = 0.0;    // steady-state initiation interval
    double frames_per_sec = 0.0;
    bool bus_bound = false;      // waveguide (true) vs compute (false)
    double bus_busy_ns = 0.0;    // waveguide occupancy per frame
    double compute_busy_ns = 0.0;  // per-processor compute per frame
  };
  static PipelineReport pipeline_estimate(const PsyncRunReport& run);

  /// Final DRAM image as complex samples (cols x rows, row-major —
  /// transposed layout).
  std::vector<std::complex<double>> result() const;

  /// Per-processor counters after a run (for inspection/tests).
  const std::vector<Processor>& processors() const { return procs_; }
  const HeadNode& head() const { return head_; }

  /// Cooperative cancellation: the run loops poll `token` at phase and
  /// per-processor batch boundaries and abort with CancelledError once it
  /// expires (the driver's per-point watchdog). nullptr disarms. The token
  /// must outlive the run; results are unaffected unless it fires.
  void set_cancel(const CancelToken* token) { cancel_ = token; }

 private:
  struct PassResult {
    double delivery_end_ns = 0.0;   // last word latched anywhere
    double compute_begin_ns = 0.0;  // first block compute start
    double compute_end_ns = 0.0;    // last processor done
    double busy_ns = 0.0;           // total compute time across the array
  };

  double slot_period_ns() const;
  /// Processor i's local memory, in the scratch.
  std::span<std::complex<double>> local_mem(std::size_t i) const;
  std::size_t rows_per_proc() const {
    return params_.matrix_rows / params_.processors;
  }

  /// One SCA^-1 + blocked-FFT pass over a (rows x cols) row-major image.
  PassResult scatter_fft_pass(const std::vector<Word>& image,
                              std::size_t rows, std::size_t cols,
                              double start_ns, Phase& scatter_phase,
                              Phase& fft_phase);

  /// SCA gather of the scratch's node words into DRAM; updates
  /// collision/gap accounting; returns the phase end time (waveguide- or
  /// DRAM-bound).
  double gather_to_dram(const CpSchedule& sched, double start_ns,
                        Phase& phase);

  /// Transpose SCA + second scatter/FFT pass + final block writeback — the
  /// shared tail of the 2D and four-step-1D flows. `pass1_end` is when the
  /// first compute pass finished. Appends its phases to `phases`.
  double reorg_and_second_pass(std::size_t rows, std::size_t cols,
                               double pass1_end, std::vector<Phase>& phases,
                               double* reorg_ns, PassResult* pass2_out);

  /// Fill the energy fields from the run's waveguide word count and the
  /// processors' operation counters.
  void apply_energy(PsyncRunReport* report) const;

  /// Fill the fault/retry/lane fields from the run's accumulators.
  void apply_reliability(PsyncRunReport* report) const;

  /// Reset per-run state; builds the protected channel (running its lane-
  /// training burst) when faults are configured or a policy is on, and
  /// returns the time the first collective may start (after training).
  double begin_run(std::vector<Phase>* phases);

  /// Push a collective's word stream through the protected channel,
  /// replacing `*words` with the delivered words (the payload's storage
  /// becomes the scratch's next delivered buffer), and set `*tail_ns` to
  /// the bus time the reliability layer appended (coding slots, replays,
  /// backoff). With no channel the stream is left untouched and `*tail_ns`
  /// is 0.
  void transmit(std::vector<Word>* words,
                const std::vector<Collision>* collisions, bool gather_side,
                double* tail_ns);

  std::uint64_t collisions_ = 0;
  bool gap_free_ = true;
  std::uint64_t waveguide_words_ = 0;  // words moved across the bus
  reliability::FaultReport fault_report_;
  reliability::RetryReport retry_report_;
  std::uint64_t overhead_slots_ = 0;
  std::unique_ptr<reliability::ProtectedChannel> channel_;
  const CancelToken* cancel_ = nullptr;

  Scratch own_;
  Scratch* scratch_;  // own_ or the borrowed one

  PsyncMachineParams params_;
  PscanTopology topo_;
  ScaEngine engine_;
  HeadNode head_;
  std::vector<Processor> procs_;
};

}  // namespace psync::core
