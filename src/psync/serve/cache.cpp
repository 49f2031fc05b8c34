#include "psync/serve/cache.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "psync/common/journal.hpp"

namespace psync::serve {

void ResultCache::open(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw SimulationError("cache: cannot create directory '" + dir +
                          "': " + std::strerror(errno));
  }
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = dir;
  map_.clear();
  for (const auto& path : list_journal_files(dir)) {
    for (auto& entry : driver::parse_journal(read_journal_lines(path), path)) {
      if (entry.point_digest == 0) continue;  // pre-digest journal line
      if (entry.rec.status != driver::PointStatus::kOk) continue;
      // Later lines win (a resubmitted campaign re-journals its splice;
      // agreeing duplicates are byte-identical anyway).
      map_[entry.point_digest] = Entry{entry.seed, std::move(entry.rec)};
    }
  }
}

std::string ResultCache::journal_path(std::uint64_t spec_digest) const {
  PSYNC_CHECK(is_open());
  return dir_ + "/" + campaign_journal_name(spec_digest);
}

std::string campaign_journal_name(std::uint64_t spec_digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx.jsonl",
                static_cast<unsigned long long>(spec_digest));
  return buf;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

bool ResultCache::lookup(std::uint64_t digest, std::uint64_t seed,
                         driver::RunRecord* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(digest);
  if (it == map_.end()) return false;
  // The digest covers the seed, so a mismatch can only be a 64-bit hash
  // collision between different points. Serving the wrong record would be
  // silent corruption; missing costs one re-simulation.
  if (it->second.seed != seed) return false;
  *out = it->second.rec;
  return true;
}

void ResultCache::store(std::uint64_t digest, std::uint64_t seed,
                        const driver::RunRecord& rec) {
  if (digest == 0 || rec.status != driver::PointStatus::kOk) return;
  std::lock_guard<std::mutex> lock(mu_);
  map_[digest] = Entry{seed, rec};
}

}  // namespace psync::serve
