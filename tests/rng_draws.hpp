// Bounded draws from psync::Rng for tests and test oracles: the seeded
// random schedules, traffic and byte strings they generate. Production
// code draws only next_u64, next_double and next_bool.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"

namespace psync {

/// Uniform in [0, bound) without modulo bias (Lemire's nearly-divisionless
/// method).
inline std::uint64_t next_below(Rng& rng, std::uint64_t bound) {
  PSYNC_CHECK(bound > 0);
  std::uint64_t x = rng.next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = rng.next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Uniform integer in [lo, hi] inclusive.
inline std::int64_t next_range(Rng& rng, std::int64_t lo, std::int64_t hi) {
  PSYNC_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(rng, span));
}

/// Fisher-Yates shuffle.
template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(next_below(rng, i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace psync
