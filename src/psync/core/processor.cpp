#include "psync/core/processor.hpp"

#include <bit>
#include <cstring>

#include "psync/common/check.hpp"
#include "psync/fft/four_step.hpp"
#include "psync/fft/plan_cache.hpp"

namespace psync::core {

Word pack_sample(std::complex<double> v) {
  const float re = static_cast<float>(v.real());
  const float im = static_cast<float>(v.imag());
  const auto re_bits = std::bit_cast<std::uint32_t>(re);
  const auto im_bits = std::bit_cast<std::uint32_t>(im);
  return (static_cast<Word>(re_bits) << 32) | im_bits;
}

std::complex<double> unpack_sample(Word w) {
  const auto re = std::bit_cast<float>(static_cast<std::uint32_t>(w >> 32));
  const auto im = std::bit_cast<float>(static_cast<std::uint32_t>(w & 0xFFFFFFFFULL));
  return {static_cast<double>(re), static_cast<double>(im)};
}

Processor::Processor(std::uint32_t id, ExecCostParams exec)
    : id_(id), exec_(exec) {}

double Processor::fft_rows(std::span<fft::Complex> mem, std::size_t rows,
                           std::size_t cols) {
  PSYNC_CHECK(mem.size() >= rows * cols);
  const fft::FftPlan& plan = fft::shared_plan(cols);
  fft::OpCount total;
  for (std::size_t r = 0; r < rows; ++r) {
    total += plan.forward(mem.subspan(r * cols, cols));
  }
  ops_ += total;
  const double ns = exec_.compute_ns(total);
  busy_ns_ += ns;
  return ns;
}

double Processor::apply_four_step_twiddles(std::span<fft::Complex> mem,
                                           std::size_t rows, std::size_t cols,
                                           std::size_t global_row0,
                                           std::size_t total_rows) {
  PSYNC_CHECK(mem.size() >= rows * cols);
  const std::size_t n = total_rows * cols;
  // Index the shared root table directly: (global_row0 + r) * q < n for all
  // in-range rows, and one fetch per call avoids the cache lock per element.
  const auto& roots = fft::shared_roots(n);
  fft::OpCount ops;
  for (std::size_t r = 0; r < rows; ++r) {
    fft::Complex* row = mem.data() + r * cols;
    const std::size_t gr = global_row0 + r;
    for (std::size_t q = 0; q < cols; ++q) {
      const fft::Complex w = roots[gr * q];
      const double xr = row[q].real();
      const double xi = row[q].imag();
      row[q] = fft::Complex(xr * w.real() - xi * w.imag(),
                            xr * w.imag() + xi * w.real());
    }
  }
  ops.real_mults += 4 * rows * cols;
  ops.real_adds += 2 * rows * cols;
  ops_ += ops;
  const double ns = exec_.compute_ns(ops);
  busy_ns_ += ns;
  return ns;
}

double Processor::fft_row_stages(std::span<fft::Complex> mem,
                                 const fft::FftPlan& plan, std::size_t row,
                                 std::size_t cols, std::size_t first_stage,
                                 std::size_t last_stage,
                                 std::size_t block_offset,
                                 std::size_t block_size, bool prepare) {
  PSYNC_CHECK(plan.size() == cols);
  PSYNC_CHECK(mem.size() >= (row + 1) * cols);
  auto span = mem.subspan(row * cols, cols);
  if (prepare) plan.bit_reverse(span);
  const fft::OpCount ops =
      plan.run_stages(span, first_stage, last_stage, block_offset, block_size);
  ops_ += ops;
  const double ns = exec_.compute_ns(ops);
  busy_ns_ += ns;
  return ns;
}

}  // namespace psync::core
