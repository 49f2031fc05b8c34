// Crash-identical journal merge: fold every shard journal a distributed
// sweep produced — including journals left by SIGKILLed workers and the
// .steal<k> fragments of re-partitioned ranges — back into one
// grid-ordered record set.
//
// Determinism contract: a merged record is exactly the journaled record
// (PR 4's %.17g round-trip plus verbatim raw report fragments), placed by
// its *global* grid index, so sweep_json/sweep_csv over the merged set are
// byte-identical to a single-process serial run. Which worker ran a point,
// in which generation, through which journal file — none of it can leak
// into the output.
//
// Trust model: the journals are ours but the run that wrote them may have
// died at any instruction. Torn tails were already dropped by
// read_journal_lines; everything else must either parse cleanly or raise a
// typed error (JournalCorruptError / JournalConflictError) — never UB,
// never a silently dropped point. Whether a record belongs to this sweep
// at all is driver::admit_journal_entry's call, made before a record
// reaches the merger.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "psync/common/journal.hpp"
#include "psync/driver/campaign.hpp"
#include "psync/driver/experiment.hpp"
#include "psync/driver/workload.hpp"

namespace psync::dist {

struct MergedJournal {
  /// Grid-ordered records; slots listed in `missing` are default-empty.
  std::vector<driver::RunRecord> records;
  /// records[i] holds a journaled record (1) or is an empty slot (0).
  std::vector<char> present;
  /// Grid indices no journal covered, ascending.
  std::vector<std::size_t> missing;
  /// Records dropped as agreeing duplicates (a point journaled by both a
  /// straggler and the thief that took over its range, or a retransmitted
  /// journal frame).
  std::size_t duplicates = 0;
};

/// The one dedup policy over a sweep grid, for the end-of-run merge and
/// the leader's live check alike: records arrive in any order; the first
/// record per index wins; a later duplicate that agrees on status is
/// counted (the records are re-derivations of the same deterministic
/// point — wall-clock and retry counts may differ and are not
/// output-bearing); a disagreeing duplicate is a JournalConflictError —
/// better a loud failure than silently picking one of two contradictory
/// results.
class JournalMerger {
 public:
  /// `grid` is the full sweep size.
  explicit JournalMerger(std::size_t grid);

  /// Offer one admitted record. Returns true when it was the first for
  /// its index. Throws JournalConflictError on a status-disagreeing
  /// duplicate, and on an index past the grid (a bounds guard; membership
  /// itself is admit_journal_entry's).
  bool offer(driver::RunRecord rec);

  /// Agreeing duplicates tolerated.
  [[nodiscard]] std::size_t duplicates() const { return merged_.duplicates; }

  /// A record for grid index `index` (inside the grid) was offered.
  [[nodiscard]] bool has(std::size_t index) const {
    return merged_.present[index] != 0;
  }

  /// The merged set, with `missing` filled in; the merger is spent.
  MergedJournal take() &&;

 private:
  MergedJournal merged_;
};

/// Reads the complete lines of the journal at a path (a missing journal
/// reads as empty).
using JournalReader =
    std::function<std::vector<std::string>(const std::string& path)>;

/// Merge the journals at `paths` against the expanded grid `points` of a
/// `workload` sweep: the paths in sorted order (so "first record wins" is
/// a deterministic rule rather than an accident of leader scheduling),
/// each read by `read` and admitted by driver::admit_sweep_journal,
/// replayed through one JournalMerger. Typed
/// errors: JournalCorruptError for an unparseable non-tail line,
/// JournalConflictError for a record of another sweep or a disagreeing
/// duplicate. Missing files read as empty (a worker may die before its
/// first append).
MergedJournal merge_journals(const std::vector<driver::RunPoint>& points,
                             const std::string& workload,
                             std::vector<std::string> paths,
                             const JournalReader& read = read_journal_lines);

}  // namespace psync::dist
