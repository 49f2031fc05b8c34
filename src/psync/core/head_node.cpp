#include "psync/core/head_node.hpp"

#include <algorithm>

#include "psync/common/check.hpp"

namespace psync::core {

HeadNode::HeadNode(HeadNodeParams params)
    : params_(params), memory_(params.dram) {
  if (params_.bus_ghz <= 0.0 || params_.waveguide_gbps <= 0.0) {
    throw SimulationError("HeadNode: rates must be positive");
  }
}

double HeadNode::bus_cycle_ns() const { return 1.0 / params_.bus_ghz; }

StreamReport HeadNode::stream_rows_report(std::uint64_t total_bits) const {
  StreamReport rep;
  const std::uint64_t rows = dram::row_transactions(params_.dram, total_bits);
  rep.bus_cycles = rows * dram::row_transaction_cycles(params_.dram);
  rep.dram_ns = static_cast<double>(rep.bus_cycles) * bus_cycle_ns();
  rep.waveguide_ns =
      static_cast<double>(total_bits) / params_.waveguide_gbps;
  rep.dram_bound = rep.dram_ns > rep.waveguide_ns;
  return rep;
}

StreamReport HeadNode::writeback(const std::vector<Word>& words,
                                 std::uint64_t first_row,
                                 std::uint64_t word_bits) {
  PSYNC_CHECK(word_bits > 0);
  const std::uint64_t total_bits = words.size() * word_bits;
  const std::uint64_t words_per_row = params_.dram.row_size_bits / word_bits;
  PSYNC_CHECK(words_per_row > 0);

  const std::uint64_t first_word = first_row * words_per_row;
  if (image_.size() < first_word + words.size()) {
    image_.resize(first_word + words.size());
  }
  std::copy(words.begin(), words.end(),
            image_.begin() + static_cast<std::ptrdiff_t>(first_word));

  const std::uint64_t rows = dram::row_transactions(params_.dram, total_bits);
  memory_.stream_rows(first_row, rows);
  return stream_rows_report(total_bits);
}

}  // namespace psync::core
