// Sorting by merging runs that are already in order.
//
// Each of a CP's strides expands to entries in ascending order; only their
// interleaving is unknown. Merging those runs costs O(n log runs) instead
// of a global O(n log n) sort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace psync::core {

/// Sorts `v`, which is the concatenation of runs each already ascending
/// under `less`. `bounds` holds the run boundaries: 0, the end of each run,
/// v.size(). Adjacent runs merge pairwise, bottom-up, with a stable
/// std::inplace_merge, so the result equals std::stable_sort of `v`: equal
/// elements keep their run order. A pair already in order is left alone.
template <class T, class Less>
void merge_sorted_runs(std::vector<T>& v, std::vector<std::size_t> bounds,
                       Less less) {
  while (bounds.size() > 2) {
    const std::size_t end = bounds.back();
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i + 2 < bounds.size(); i += 2) {
      const auto first = v.begin() + static_cast<std::ptrdiff_t>(bounds[i]);
      const auto mid = v.begin() + static_cast<std::ptrdiff_t>(bounds[i + 1]);
      const auto last = v.begin() + static_cast<std::ptrdiff_t>(bounds[i + 2]);
      if (first != mid && mid != last && less(*mid, *(mid - 1))) {
        std::inplace_merge(first, mid, last, less);
      }
      bounds[kept++] = bounds[i];
    }
    if (i + 2 == bounds.size()) bounds[kept++] = bounds[i];  // odd run out
    bounds[kept++] = end;
    bounds.resize(kept);
  }
}

}  // namespace psync::core
