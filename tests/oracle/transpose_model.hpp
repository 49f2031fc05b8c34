// Transpose writeback model: the independent Eq. 23/24 closed form for the
// PSCAN side of paper Table III (Section V-C-1), which the tests check the
// SCA engine + DRAM controller path against, and a first-order mesh
// estimate used to sanity check the cycle-level simulator.
#pragma once

#include <cstdint>

namespace psync::analysis {

struct TransposeParams {
  std::uint64_t row_samples = 1024;   // N, FFT row size in samples
  std::uint64_t sample_bits = 64;     // S_s
  std::uint64_t processors = 1024;    // P
  std::uint64_t dram_row_bits = 2048; // S_r
  std::uint64_t bus_bits = 64;        // S_b (memory bus width)
  std::uint64_t header_bits = 64;     // S_h
};

/// Number of full-row transactions P_t = N*S_s*P / S_r  (Eq. 23).
std::uint64_t transactions(const TransposeParams& p);

/// Bus cycles per transaction t_t = (S_r + S_h) / S_b  (Eq. 24).
std::uint64_t transaction_cycles(const TransposeParams& p);

/// Optimal PSCAN writeback time in bus cycles: P_t * t_t. For the paper's
/// parameters this is 1,081,344 cycles for the 2^20-sample transpose.
std::uint64_t pscan_writeback_cycles(const TransposeParams& p);

/// First-order mesh estimate: the memory interface serializes, per packet of
/// E elements, (E + 1) ejection cycles + E*t_p reorder cycles + one DRAM row
/// write of (S_r + S_h)/S_b cycles (stages not overlapped, as the paper's
/// TLM model behaves); network congestion adds more on top of this bound.
std::uint64_t mesh_writeback_cycles_estimate(const TransposeParams& p,
                                             std::uint64_t t_p);

/// The paper's reported mesh numbers for reference: 3,526,620 cycles at
/// t_p = 1 and 6,553,448 at t_p = 4.
inline constexpr std::uint64_t kPaperMeshCyclesTp1 = 3'526'620;
inline constexpr std::uint64_t kPaperMeshCyclesTp4 = 6'553'448;
inline constexpr std::uint64_t kPaperPscanCycles = 1'081'344;

}  // namespace psync::analysis
