// Deterministic pseudo-random number generation for workload generators and
// property tests: xoshiro256** (Blackman & Vigna), seeded via splitmix64 so
// any 64-bit seed yields a well-mixed state.
#pragma once

#include <cstdint>

namespace psync {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p.
  bool next_bool(double p = 0.5);

 private:
  std::uint64_t s_[4];
};

}  // namespace psync
