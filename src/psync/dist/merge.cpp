#include "psync/dist/merge.hpp"

#include <algorithm>
#include <utility>

#include "psync/common/check.hpp"

namespace psync::dist {

JournalMerger::JournalMerger(std::size_t grid) {
  merged_.records.resize(grid);
  merged_.present.assign(grid, 0);
}

bool JournalMerger::offer(driver::RunRecord rec) {
  const std::size_t idx = rec.index;
  if (idx >= merged_.records.size()) {
    throw JournalConflictError(
        "journal merge: record index " + std::to_string(idx) +
        " outside the sweep grid of " +
        std::to_string(merged_.records.size()) + " point(s)");
  }
  if (merged_.present[idx] != 0) {
    const driver::PointStatus first = merged_.records[idx].status;
    if (rec.status != first) {
      throw JournalConflictError(
          "journal merge: point " + std::to_string(idx) +
          " recorded twice with conflicting status ('" +
          driver::to_string(first) + "' first, then '" +
          driver::to_string(rec.status) + "')");
    }
    ++merged_.duplicates;
    return false;
  }
  merged_.records[idx] = std::move(rec);
  merged_.present[idx] = 1;
  return true;
}

MergedJournal JournalMerger::take() && {
  for (std::size_t i = 0; i < merged_.present.size(); ++i) {
    if (merged_.present[i] == 0) merged_.missing.push_back(i);
  }
  return std::move(merged_);
}

MergedJournal merge_journals(const std::vector<driver::RunPoint>& points,
                             const std::string& workload,
                             std::vector<std::string> paths,
                             const JournalReader& read) {
  std::sort(paths.begin(), paths.end());
  JournalMerger merger(points.size());
  for (const auto& path : paths) {
    for (auto& entry :
         driver::admit_sweep_journal(read(path), path, points, workload)) {
      merger.offer(std::move(entry.rec));
    }
  }
  return std::move(merger).take();
}

}  // namespace psync::dist
