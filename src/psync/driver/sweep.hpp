// SweepEngine: expands an ExperimentSpec's axes into the cartesian grid of
// run points and executes a point function over them on a fixed-size
// std::thread pool.
//
// Determinism contract: expansion is row-major (first axis slowest) and
// collection is order-preserving (results land at their point's grid
// index), and every point's RNG seed is derived from (spec.input_seed,
// index) alone — so an N-point sweep produces byte-identical tables and
// JSON whether it ran on 1 thread or 16, and regardless of which worker
// claimed which point.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "psync/core/scratch.hpp"
#include "psync/driver/experiment.hpp"

namespace psync::driver {

class SweepEngine {
 public:
  /// `threads` caps the pool; the engine never spawns more workers than
  /// there are points, and `threads <= 1` runs inline on the caller.
  explicit SweepEngine(std::size_t threads = 1) : threads_(threads) {}

  std::size_t threads() const { return threads_; }

  /// Deterministic per-point seed: a splitmix64 mix of the base seed and
  /// the point's grid index (never dependent on thread assignment).
  static std::uint64_t point_seed(std::uint64_t base, std::size_t index);

  /// Row-major cartesian expansion of the spec's axes into run points with
  /// knobs applied and seeds assigned. A spec with no axes yields one
  /// point. Throws ConfigError naming an axis with no values, and
  /// SimulationError on an unknown knob name.
  static std::vector<RunPoint> expand(const ExperimentSpec& spec);

  /// Apply `fn(item, scratch)` to every element of `items` on the pool;
  /// the result vector is in input order. `scratch` is the calling
  /// worker's own core::Scratch, reused across the items it runs. `fn`
  /// must be thread-safe. If any invocation throws, the first exception
  /// (by item index) is rethrown after all workers drain.
  template <typename T, typename Fn>
  auto map(const std::vector<T>& items, Fn&& fn) const
      -> std::vector<decltype(fn(items.front(),
                                 std::declval<core::Scratch&>()))> {
    using R = decltype(fn(items.front(), std::declval<core::Scratch&>()));
    std::vector<R> results(items.size());
    std::vector<std::exception_ptr> errors(items.size());
    run_indexed(items.size(), [&](std::size_t i, core::Scratch& scratch) {
      try {
        results[i] = fn(items[i], scratch);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return results;
  }

 private:
  /// Run body(i, scratch) for i in 0..n-1 across the pool, each worker
  /// passing a Scratch of its own; blocks until every index is done.
  void run_indexed(
      std::size_t n,
      const std::function<void(std::size_t, core::Scratch&)>& body) const;

  std::size_t threads_;
};

}  // namespace psync::driver
