// ResultCache: the content-addressed index over the journal store.
//
// The daemon keeps one journal per campaign in its cache directory, named
// by the spec digest (<16-hex>.jsonl). Each journal line carries the
// point's content digest ("pd"), so the union of all journals IS the
// durable result cache — this class is only the in-memory index over it.
// On open() the index is rebuilt by scanning every *.jsonl in the
// directory, which is what makes a SIGKILLed daemon's results survive a
// restart: the fsync'd journals are the truth, the index is derived.
//
// Only kOk records are indexed or returned. Failed/quarantined records
// stay in their campaign's journal (so an interrupted campaign resumes
// past them correctly) but are never served to a different submission —
// a transient failure must not poison the cache.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "psync/driver/session.hpp"

namespace psync::serve {

/// The journal filename a campaign's records live under: <16-hex>.jsonl
/// of the spec digest (matches protocol.hpp's campaign_id plus suffix).
std::string campaign_journal_name(std::uint64_t spec_digest);

class ResultCache : public driver::PointCache {
 public:
  ResultCache() = default;

  /// Attach to a cache directory (created if missing) and rebuild the
  /// index from every journal in it, read by the rule resume uses
  /// (driver::parse_journal): a torn final line is dropped, and any other
  /// line that fails to parse is a JournalCorruptError naming file and line,
  /// since resubmitting that campaign would fail on it anyway. Lines with
  /// no digest (pre-digest journals) or not kOk are skipped. Throws
  /// SimulationError when the directory cannot be created.
  void open(const std::string& dir);

  [[nodiscard]] bool is_open() const { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Indexed records (kOk with a digest), for accounting/tests.
  [[nodiscard]] std::size_t size() const;

  // driver::PointCache — thread-safe; concurrent campaigns share one
  // instance.
  bool lookup(std::uint64_t digest, std::uint64_t seed,
              driver::RunRecord* out) override;
  void store(std::uint64_t digest, std::uint64_t seed,
             const driver::RunRecord& rec) override;

 private:
  struct Entry {
    std::uint64_t seed = 0;
    driver::RunRecord rec;
  };

  mutable std::mutex mu_;
  std::string dir_;
  // Audited: this index is find/insert/size/clear only — nothing ever
  // iterates it, so its hash order cannot reach a journal, a response, or
  // any other serialized byte. The durable order lives in the journals.
  // psync-lint: allow(det-unordered): lookup-only index; iteration order never escapes (see audit note above)
  std::unordered_map<std::uint64_t, Entry> map_;
};

}  // namespace psync::serve
