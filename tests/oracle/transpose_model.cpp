#include "oracle/transpose_model.hpp"

#include "psync/common/check.hpp"

namespace psync::analysis {

std::uint64_t transactions(const TransposeParams& p) {
  PSYNC_CHECK(p.dram_row_bits > 0);
  return p.row_samples * p.sample_bits * p.processors / p.dram_row_bits;
}

std::uint64_t transaction_cycles(const TransposeParams& p) {
  PSYNC_CHECK(p.bus_bits > 0);
  return (p.dram_row_bits + p.header_bits) / p.bus_bits;
}

std::uint64_t pscan_writeback_cycles(const TransposeParams& p) {
  return transactions(p) * transaction_cycles(p);
}

std::uint64_t mesh_writeback_cycles_estimate(const TransposeParams& p,
                                             std::uint64_t t_p) {
  const std::uint64_t elements_per_row = p.dram_row_bits / p.sample_bits;
  const std::uint64_t packets = transactions(p);  // one DRAM row per packet
  const std::uint64_t per_packet = (elements_per_row + 1)        // ejection
                                   + elements_per_row * t_p      // reorder
                                   + transaction_cycles(p);      // DRAM write
  return packets * per_packet;
}

}  // namespace psync::analysis
