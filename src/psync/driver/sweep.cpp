#include "psync/driver/sweep.hpp"

#include "psync/common/check.hpp"

namespace psync::driver {

std::uint64_t SweepEngine::point_seed(std::uint64_t base, std::size_t index) {
  // splitmix64 over (base + golden-ratio stride per index): well-mixed,
  // collision-free for any practical grid, and independent of threading.
  std::uint64_t z = base + (static_cast<std::uint64_t>(index) + 1) *
                               0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<RunPoint> SweepEngine::expand(const ExperimentSpec& spec) {
  std::size_t total = 1;
  for (const auto& axis : spec.axes) {
    if (axis.values.empty()) {
      throw empty_axis_error(axis.knob);
    }
    total *= axis.values.size();
  }

  std::vector<RunPoint> points;
  points.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    RunPoint pt;
    pt.index = index;
    pt.machine = spec.machine;
    pt.mesh = spec.mesh;
    pt.with_mesh = spec.with_mesh;
    pt.verify = spec.verify;
    pt.transpose_elements = spec.transpose_elements;
    pt.seed = point_seed(spec.input_seed, index);

    // Row-major decode: first axis slowest.
    std::size_t stride = total;
    for (const auto& axis : spec.axes) {
      stride /= axis.values.size();
      const double value = axis.values[(index / stride) % axis.values.size()];
      pt.knobs.emplace_back(axis.knob, value);
      if (!apply_knob(axis.knob, value, &pt.machine, &pt.mesh)) {
        throw SimulationError("sweep: unknown knob '" + axis.knob + "'");
      }
    }
    // Content digest over the post-knob state: the result cache's per-point
    // key. Computed here so every execution path (Session, dist
    // workers) sees the same digest for the same point.
    pt.digest = point_digest(spec.workload, pt);
    points.push_back(std::move(pt));
  }
  return points;
}

void SweepEngine::run_indexed(
    std::size_t n,
    const std::function<void(std::size_t, core::Scratch&)>& body) const {
  if (n == 0) return;
  const std::size_t workers = std::min(threads_ == 0 ? 1 : threads_, n);
  if (workers <= 1) {
    core::Scratch scratch;
    for (std::size_t i = 0; i < n; ++i) body(i, scratch);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      core::Scratch scratch;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i, scratch);
      }
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace psync::driver
