#include "psync/common/stats.hpp"

#include "psync/common/check.hpp"

namespace psync {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
  PSYNC_CHECK(hi > lo);
  PSYNC_CHECK(bins > 0);
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

void Histogram::add(double x) {
  auto idx = static_cast<std::int64_t>((x - lo_) / width_);
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::string Histogram::to_string(std::size_t max_width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "[%10.3g, %10.3g) %8llu ", bin_lo(i),
                  bin_hi(i), static_cast<unsigned long long>(counts_[i]));
    out += buf;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(max_width));
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace psync
