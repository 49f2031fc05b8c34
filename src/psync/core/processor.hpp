// A P-sync processing element (paper Fig. 7): an execution unit with a
// deterministic cost model, computation and communication instruction
// memories, and the waveguide interface state. Its local data memory
// belongs to the machine that runs it, which hands it to every compute
// call (PsyncMachine keeps all processors' memories in one buffer).
//
// The execution-unit cost model matches the paper's accounting (Section
// V-B-1): a floating-point multiply costs `fp_mult_ns`, one FFT butterfly
// costs `mults_per_butterfly` multiplies, and only multiplies are charged.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "psync/common/units.hpp"
#include "psync/core/comm_program.hpp"
#include "psync/core/sca.hpp"
#include "psync/fft/fft.hpp"

namespace psync::core {

struct ExecCostParams {
  /// Nanoseconds per floating-point multiply (paper: 2 ns).
  double fp_mult_ns = 2.0;
  /// Real multiplies per FFT butterfly (paper: 4 — one complex multiply).
  std::uint32_t mults_per_butterfly = 4;
  /// Nanoseconds charged per floating-point add (paper charges 0).
  double fp_add_ns = 0.0;
  /// Energy per multiply / add, pJ (45 nm-class FPU + register access).
  double fp_mult_pj = 20.0;
  double fp_add_pj = 5.0;

  /// Time to execute `ops` (multiply-only accounting unless fp_add_ns set;
  /// a butterfly carries mults_per_butterfly real multiplies, so this is
  /// the paper's Table I accounting).
  double compute_ns(const fft::OpCount& ops) const {
    return static_cast<double>(ops.real_mults) * fp_mult_ns +
           static_cast<double>(ops.real_adds) * fp_add_ns;
  }

  /// Energy to execute `ops`, picojoules.
  double compute_energy_pj(const fft::OpCount& ops) const {
    return static_cast<double>(ops.real_mults) * fp_mult_pj +
           static_cast<double>(ops.real_adds) * fp_add_pj;
  }

  /// Peak multiply throughput, operations per second.
  double peak_mults_per_sec() const { return 1e9 / fp_mult_ns; }
};

/// Pack/unpack a complex sample into the 64-bit word format the waveguide
/// carries (paper: 64-bit samples = two 32-bit floats).
Word pack_sample(std::complex<double> v);
std::complex<double> unpack_sample(Word w);

/// Execution state of one processing element during a machine run.
class Processor {
 public:
  Processor(std::uint32_t id, ExecCostParams exec);

  std::uint32_t id() const { return id_; }
  const ExecCostParams& exec() const { return exec_; }

  /// Load the communication program for the next collective.
  void load_comm_program(CommProgram cp) { cp_ = std::move(cp); }
  const CommProgram& comm_program() const { return cp_; }

  /// Run an in-place FFT over each of `rows` rows of length `cols` held in
  /// `mem`. Returns elapsed compute time (ns) under the cost model and
  /// accumulates op counters.
  double fft_rows(std::span<fft::Complex> mem, std::size_t rows,
                  std::size_t cols);

  /// Run only stages [first, last) of a row FFT (for Model II interleaving),
  /// optionally restricted to one delivery block (`block_offset`/
  /// `block_size`, 0 = whole row); `prepare` bit-reverses the row first
  /// (unnecessary when the SCA^-1 delivered the row pre-permuted).
  /// Returns elapsed ns.
  double fft_row_stages(std::span<fft::Complex> mem, const fft::FftPlan& plan,
                        std::size_t row, std::size_t cols,
                        std::size_t first_stage, std::size_t last_stage,
                        std::size_t block_offset = 0,
                        std::size_t block_size = 0, bool prepare = false);

  /// Apply the four-step twiddle scaling W_N^{r*q} to `rows` local rows of
  /// length `cols`, where the node's first row is global row `global_row0`
  /// of an N = total_rows*cols point transform. Returns elapsed ns.
  double apply_four_step_twiddles(std::span<fft::Complex> mem,
                                  std::size_t rows, std::size_t cols,
                                  std::size_t global_row0,
                                  std::size_t total_rows);

  const fft::OpCount& ops() const { return ops_; }
  double busy_ns() const { return busy_ns_; }

 private:
  std::uint32_t id_;
  ExecCostParams exec_;
  CommProgram cp_;
  fft::OpCount ops_;
  double busy_ns_ = 0.0;
};

}  // namespace psync::core
