// The P-sync head node (paper Section IV): the processor that understands
// the memory layout and issues requests to DRAM so that data streams onto
// the SCA^-1 waveguide "just in time", and that lands SCA gather bursts
// into DRAM rows.
//
// Its key feasibility check: DRAM must sustain the waveguide rate. The head
// node computes the DRAM-side streaming time for a burst and reports
// whether the photonic link or the memory is the bottleneck.
#pragma once

#include <cstdint>
#include <vector>

#include "psync/common/units.hpp"
#include "psync/dram/controller.hpp"
#include "psync/core/sca.hpp"
#include "psync/reliability/channel.hpp"

namespace psync::core {

struct HeadNodeParams {
  dram::DramParams dram;
  /// Memory bus clock, GHz (bus moves dram.bus_width_bits per cycle).
  double bus_ghz = 5.0;
  /// Waveguide aggregate rate, Gb/s (paper: 320).
  double waveguide_gbps = 320.0;
};

struct StreamReport {
  std::uint64_t bus_cycles = 0;    // DRAM-side cost (Eq. 23/24 when rows)
  double dram_ns = 0.0;            // bus_cycles / bus rate
  double waveguide_ns = 0.0;       // bits / waveguide rate
  bool dram_bound = false;         // DRAM slower than the waveguide
  double bottleneck_ns() const { return dram_bound ? dram_ns : waveguide_ns; }
};

class HeadNode {
 public:
  explicit HeadNode(HeadNodeParams params);

  const HeadNodeParams& params() const { return params_; }
  dram::MemoryController& memory() { return memory_; }

  /// Memory bus cycle time in nanoseconds.
  double bus_cycle_ns() const;

  /// Cost of streaming `total_bits` of row-aligned data out of (or into)
  /// DRAM as full-row transactions, vs. the waveguide transfer time.
  StreamReport stream_rows_report(std::uint64_t total_bits) const;

  /// Execute an SCA writeback: land `words` (one DRAM row per
  /// row_size/word_bits words) into consecutive rows starting at
  /// `first_row`, storing them in the backing image. Returns the report.
  StreamReport writeback(const std::vector<Word>& words,
                         std::uint64_t first_row, std::uint64_t word_bits);

  /// Backing image: word-addressable memory contents (for verification).
  std::vector<Word>& image() { return image_; }
  const std::vector<Word>& image() const { return image_; }

  /// Gather-side reliability log: the decode/replay outcomes this head
  /// node observed while landing SCA bursts (it is the retry initiator —
  /// a bad block is re-requested from the array in fresh slots). Cleared
  /// at the start of each machine run.
  void log_retry(const reliability::RetryReport& r) { retry_log_.merge(r); }
  const reliability::RetryReport& retry_log() const { return retry_log_; }
  void clear_retry_log() { retry_log_ = {}; }

 private:
  HeadNodeParams params_;
  dram::MemoryController memory_;
  std::vector<Word> image_;
  reliability::RetryReport retry_log_;
};

}  // namespace psync::core
