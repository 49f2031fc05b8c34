// Test oracle for the FFT stage kernel: the original strided radix-2 stage
// loop that fft::FftPlan::run_stages (the fused, cache-blocked, optionally
// vectorized kernel) is tested and benchmarked against.
//
// The twiddle table is built with FftPlan's constructor expression, so both
// sides multiply by bit-identical factors and the dispatched kernel must
// match this loop to the bit, op counts included.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "psync/fft/fft.hpp"

namespace psync::oracle {

/// An N-point strided radix-2 DIT transform (N a power of two) with its own
/// twiddle table, mirroring FftPlan's public transforms.
class StridedFft {
 public:
  explicit StridedFft(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t log2n() const { return log2n_; }

  /// Stages [first_stage, last_stage) on already bit-reversed data, over
  /// the block [block_offset, block_offset + block_size) (block_size 0 =
  /// the whole row). Same contract as FftPlan::run_stages.
  fft::OpCount run_stages(std::span<fft::Complex> data,
                          std::size_t first_stage, std::size_t last_stage,
                          std::size_t block_offset = 0,
                          std::size_t block_size = 0) const;

  fft::OpCount forward(std::span<fft::Complex> data) const;
  fft::OpCount forward_blocked(std::span<fft::Complex> data,
                               std::size_t k) const;

 private:
  void bit_reverse(std::span<fft::Complex> data) const;

  std::size_t n_;
  std::size_t log2n_ = 0;
  std::vector<std::size_t> rev_;       // bit-reversed index of i
  std::vector<fft::Complex> twiddle_;  // exp(-2*pi*i*j/N), j < max(N/2, 1)
};

/// One-shot form: StridedFft(data.size()).run_stages(...).
fft::OpCount run_stages(std::span<fft::Complex> data, std::size_t first_stage,
                        std::size_t last_stage, std::size_t block_offset = 0,
                        std::size_t block_size = 0);

}  // namespace psync::oracle
