#include "psync/analysis/fft_model.hpp"

#include <cmath>

#include "psync/common/check.hpp"

namespace psync::analysis {
namespace {

std::uint64_t ilog2(std::uint64_t n) {
  std::uint64_t l = 0;
  while ((std::uint64_t{1} << l) < n) ++l;
  return l;
}

}  // namespace

std::uint64_t block_mults(const FftWorkload& w, std::uint64_t k) {
  PSYNC_CHECK(k >= 1 && k <= w.fft_points);
  const std::uint64_t bs = w.fft_points / k;
  return 2 * bs * ilog2(bs);
}

std::uint64_t final_mults(const FftWorkload& w, std::uint64_t k) {
  return 2 * w.fft_points * ilog2(k);
}

FftBlockRow table1_row(const FftWorkload& w, std::uint64_t k) {
  FftBlockRow row;
  row.k = k;
  row.block_size = w.fft_points / k;
  row.t_ck_ns = static_cast<double>(block_mults(w, k)) * w.fp_mult_ns;
  row.t_cf_ns = static_cast<double>(final_mults(w, k)) * w.fp_mult_ns;
  const double block_bits =
      static_cast<double>(row.block_size) * static_cast<double>(w.sample_bits);
  row.bandwidth_gbps = balanced_bandwidth_gbps(
      static_cast<double>(w.processors), block_bits, row.t_ck_ns);

  ModelInputs in;
  in.processors = static_cast<double>(w.processors);
  in.blocks = static_cast<double>(k);
  in.t_ck_ns = row.t_ck_ns;
  in.t_dk_ns = row.t_ck_ns / static_cast<double>(w.processors);  // balanced
  in.t_cf_ns = row.t_cf_ns;
  row.efficiency = efficiency(in);
  return row;
}

std::vector<FftBlockRow> table1(const FftWorkload& w, std::uint64_t max_k) {
  std::vector<FftBlockRow> rows;
  for (std::uint64_t k = 1; k <= max_k; k *= 2) {
    rows.push_back(table1_row(w, k));
  }
  return rows;
}

}  // namespace psync::analysis
