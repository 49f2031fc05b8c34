// Blocked-FFT delivery efficiency: regenerates paper Table I
// ("Compute efficiency for zero latency") and the machinery behind Fig. 11.
//
// Parameters (paper Section V-B-1): 1024-point row FFTs on 256 processors,
// floating-point multiplies take 2 ns, 4 real multiplies per butterfly,
// 64-bit samples, only multiplies are charged. Bandwidth W_p is chosen per
// row so that delivery exactly balances compute (Eq. 19/20).
#pragma once

#include <cstdint>
#include <vector>

#include "psync/analysis/perf_model.hpp"

namespace psync::analysis {

struct FftWorkload {
  std::uint64_t fft_points = 1024;   // N, samples per processor row
  std::uint64_t processors = 256;    // P
  Ns fp_mult_ns{2.0};                // multiply latency
  std::uint32_t mults_per_butterfly = 4;
  std::uint64_t sample_bits = 64;    // S_s
};

struct FftBlockRow {
  std::uint64_t k = 1;          // delivery blocks
  std::uint64_t block_size = 0; // S_b = N/k samples
  Ns t_ck_ns{0.0};              // per-block compute time (Eq. 17 * mult cost)
  Ns t_cf_ns{0.0};              // final-phase compute time (Eq. 18 * cost)
  GigabitsPerSec bandwidth_gbps{0.0};  // W_p for balance (Eq. 20)
  double efficiency = 0.0;      // eta at zero network latency
};

/// Multiplies per delivered block: Eq. 17, (2N/k) log2(N/k).
std::uint64_t block_mults(const FftWorkload& w, std::uint64_t k);
/// Multiplies in the final compute-only phase: Eq. 18, 2N log2 k.
std::uint64_t final_mults(const FftWorkload& w, std::uint64_t k);

/// One Table I row for block count `k`.
FftBlockRow table1_row(const FftWorkload& w, std::uint64_t k);

/// All Table I rows for k in {1, 2, ..., max_k} (powers of two).
std::vector<FftBlockRow> table1(const FftWorkload& w, std::uint64_t max_k = 64);

}  // namespace psync::analysis
