// Streaming statistics and simple fixed-width histograms used by the
// simulators to summarize latency, occupancy and utilization measurements.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace psync {

/// Welford streaming accumulator: count/mean/variance plus min/max/sum.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = RunningStats{}; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples land in
/// saturating edge bins so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }
  double bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
  double bin_hi(std::size_t i) const { return lo_ + width_ * static_cast<double>(i + 1); }
  std::uint64_t total() const { return total_; }

  std::string to_string(std::size_t max_width = 50) const;

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace psync
