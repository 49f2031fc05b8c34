#include "psync/driver/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/common/json.hpp"
#include "psync/core/trace.hpp"

namespace psync::driver {

FailureKind classify_failure(const std::exception& e) {
  if (dynamic_cast<const CancelledError*>(&e) != nullptr) {
    return FailureKind::kTimeout;
  }
  if (dynamic_cast<const ConfigError*>(&e) != nullptr) {
    return FailureKind::kConfigInvalid;
  }
  if (dynamic_cast<const ResourceLimitError*>(&e) != nullptr) {
    return FailureKind::kOomEstimateExceeded;
  }
  if (dynamic_cast<const DivergenceError*>(&e) != nullptr) {
    return FailureKind::kSimDiverged;
  }
  return FailureKind::kInternalError;
}

bool failure_is_retryable(FailureKind kind) {
  // kWorkerCrash is a leader-side verdict (the point already ate its K
  // restarts at process granularity), so it is terminal here.
  return kind == FailureKind::kTimeout || kind == FailureKind::kInternalError;
}

std::size_t estimate_point_bytes(const std::string& workload,
                                 const RunPoint& pt) {
  // sizeof(std::complex<double>) per element, times a small factor for the
  // working copies the machines hold (input, per-processor tiles, delivery
  // buffers, reference transform). Deliberately coarse — this is an
  // admission gate against runaway grids, not an allocator model.
  constexpr std::size_t kElem = 16;
  constexpr std::size_t kCopies = 6;
  const std::size_t matrix =
      pt.machine.matrix_rows * pt.machine.matrix_cols * kElem * kCopies;
  if (workload == "mesh") {
    return pt.mesh.matrix_rows * pt.mesh.matrix_cols * kElem * kCopies;
  }
  if (workload == "transpose") {
    return pt.mesh.grid * pt.mesh.grid * pt.transpose_elements * 8 * 4;
  }
  if (workload == "fig11" || workload == "fig13") return 1024;
  if (workload == "fft2d" && pt.with_mesh) return matrix * 2;
  return matrix;  // fft2d, fft1d, pipeline, reliability, degradation_sweep
}

namespace {

RunRecord fail_record(const std::string& workload, const RunPoint& point) {
  RunRecord rec;
  rec.index = point.index;
  rec.workload = workload;
  rec.knobs = point.knobs;
  return rec;
}

}  // namespace

RunRecord PointGuard::run(const std::string& workload, const RunPoint& point,
                          const PointFn& fn,
                          const CancelToken* external) const {
  if (!params_.isolate) {
    RunPoint pt = point;
    if (pt.cancel == nullptr) pt.cancel = external;
    return fn(pt);
  }

  if (params_.max_point_mb > 0) {
    const std::size_t est = estimate_point_bytes(workload, point);
    if (est > params_.max_point_mb * std::size_t{1024} * 1024) {
      RunRecord rec = fail_record(workload, point);
      rec.status = PointStatus::kFailed;
      rec.failure = PointFailure{
          FailureKind::kOomEstimateExceeded,
          "estimated working set " + std::to_string(est / (1024 * 1024)) +
              " MiB exceeds guard.max_point_mb = " +
              std::to_string(params_.max_point_mb),
          0};
      return rec;
    }
  }

  for (std::size_t attempt = 1;; ++attempt) {
    if (external != nullptr && external->cancelled()) {
      throw CancelledError("sweep cancelled before point attempt");
    }
    CancelToken token;
    RunPoint pt = point;
    if (params_.point_timeout_ms > 0.0) {
      token.set_deadline_ms(params_.point_timeout_ms);
      token.set_parent(external);
      pt.cancel = &token;
    } else if (external != nullptr) {
      pt.cancel = external;
    }

    FailureKind kind = FailureKind::kInternalError;
    std::string message;
    try {
      RunRecord rec = fn(pt);
      rec.retries = attempt - 1;
      return rec;
    } catch (const std::exception& e) {
      // A process-wide shutdown is not a point failure: rethrow so the
      // abandoned point stays un-journaled and un-recorded.
      if (external != nullptr && external->cancelled()) throw;
      kind = classify_failure(e);
      message = e.what();
    } catch (...) {
      if (external != nullptr && external->cancelled()) throw;
      message = "unknown exception type";
    }

    if (!failure_is_retryable(kind) || attempt > params_.max_retries) {
      RunRecord rec = fail_record(workload, point);
      rec.status = failure_is_retryable(kind) ? PointStatus::kQuarantined
                                              : PointStatus::kFailed;
      rec.retries = attempt - 1;
      rec.failure = PointFailure{kind, message, attempt};
      return rec;
    }
    if (params_.retry_backoff_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          params_.retry_backoff_ms * static_cast<double>(attempt)));
    }
  }
}

CampaignReport summarize_campaign(const std::vector<RunRecord>& records,
                                  std::size_t begin, std::size_t end) {
  CampaignReport c;
  begin = std::min(begin, records.size());
  end = std::min(end, records.size());
  c.points = end - begin;
  for (std::size_t i = begin; i < end; ++i) {
    const auto& rec = records[i];
    switch (rec.status) {
      case PointStatus::kOk: ++c.ok; break;
      case PointStatus::kFailed: ++c.failed; break;
      case PointStatus::kQuarantined:
        ++c.quarantined;
        c.quarantine.push_back(rec.index);
        break;
    }
    c.retries += rec.retries;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Journal codec.

namespace {

// %.17g: the shortest printf format guaranteed to round-trip an IEEE-754
// double through strtod bit-exactly. The serializers render at
// precision(12); identical bits re-render to identical text, which is the
// whole byte-identity argument for resume.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// [["name",value],...] for knobs; [["name",value,decimals],...] for metrics.
bool parse_pair_array(json::Cursor* c, bool with_decimals,
                      std::vector<std::pair<std::string, double>>* knobs,
                      std::vector<Metric>* metrics) {
  if (!c->expect('[')) return false;
  if (c->expect(']')) return true;
  while (true) {
    if (!c->expect('[')) return false;
    std::string name;
    double value = 0.0;
    if (!c->read_string(&name)) return false;
    if (!c->expect(',')) return false;
    if (!c->read_double(&value)) return false;
    if (with_decimals) {
      double decimals = 0.0;
      if (!c->expect(',')) return false;
      if (!c->read_double(&decimals)) return false;
      metrics->push_back({name, value, static_cast<int>(decimals)});
    } else {
      knobs->push_back({name, value});
    }
    if (!c->expect(']')) return false;
    if (c->expect(']')) return true;
    if (!c->expect(',')) return false;
  }
}

bool parse_failure(json::Cursor* c, PointFailure* out) {
  if (!c->expect('{')) return false;
  bool saw_kind = false;
  while (true) {
    std::string key;
    if (!c->read_string(&key)) return false;
    if (!c->expect(':')) return false;
    if (key == "kind") {
      std::string kind;
      if (!c->read_string(&kind)) return false;
      out->kind = failure_kind_from_string(kind);
      saw_kind = true;
    } else if (key == "message") {
      if (!c->read_string(&out->message)) return false;
    } else if (key == "attempts") {
      std::uint64_t attempts = 0;
      if (!c->read_u64(&attempts)) return false;
      out->attempts = static_cast<std::size_t>(attempts);
    } else {
      if (!c->capture(nullptr)) return false;
    }
    if (c->expect('}')) return saw_kind;
    if (!c->expect(',')) return false;
  }
}

}  // namespace

std::string journal_line(const RunRecord& rec, std::uint64_t seed,
                         std::uint64_t point_digest) {
  std::ostringstream os;
  os << "{\"v\":1,\"index\":" << rec.index << ",\"seed\":" << seed;
  if (point_digest != 0) os << ",\"pd\":" << point_digest;
  os << ",\"workload\":\"" << json::escape(rec.workload) << "\",\"status\":\""
     << to_string(rec.status) << "\",\"retries\":" << rec.retries
     << ",\"wall_ms\":" << fmt_double(rec.wall_ns * 1e-6) << ",\"knobs\":[";
  for (std::size_t k = 0; k < rec.knobs.size(); ++k) {
    if (k > 0) os << ',';
    os << "[\"" << json::escape(rec.knobs[k].first) << "\","
       << fmt_double(rec.knobs[k].second) << ']';
  }
  os << "],\"metrics\":[";
  for (std::size_t m = 0; m < rec.metrics.size(); ++m) {
    if (m > 0) os << ',';
    os << "[\"" << json::escape(rec.metrics[m].name) << "\","
       << fmt_double(rec.metrics[m].value) << ',' << rec.metrics[m].decimals
       << ']';
  }
  os << ']';
  if (rec.failure) {
    os << ",\"failure\":{\"kind\":\"" << to_string(rec.failure->kind)
       << "\",\"message\":\"" << json::escape(rec.failure->message)
       << "\",\"attempts\":" << rec.failure->attempts << '}';
  }
  if (rec.psync) {
    os << ",\"psync\":" << core::run_report_json(*rec.psync);
  } else if (!rec.psync_json.empty()) {
    os << ",\"psync\":" << rec.psync_json;
  }
  if (rec.mesh) {
    os << ",\"mesh\":" << core::run_report_json(*rec.mesh);
  } else if (!rec.mesh_json.empty()) {
    os << ",\"mesh\":" << rec.mesh_json;
  }
  os << '}';
  return os.str();
}

bool parse_journal_line(const std::string& line, JournalEntry* out) {
  json::Cursor c(line);
  JournalEntry entry;
  bool saw_version = false, saw_index = false, saw_seed = false,
       saw_workload = false, saw_status = false;
  try {
    if (!c.expect('{')) return false;
    while (true) {
      std::string key;
      if (!c.read_string(&key)) return false;
      if (!c.expect(':')) return false;
      if (key == "v") {
        std::uint64_t v = 0;
        if (!c.read_u64(&v) || v != 1) return false;
        saw_version = true;
      } else if (key == "index") {
        std::uint64_t idx = 0;
        if (!c.read_u64(&idx)) return false;
        entry.rec.index = static_cast<std::size_t>(idx);
        saw_index = true;
      } else if (key == "seed") {
        if (!c.read_u64(&entry.seed)) return false;
        saw_seed = true;
      } else if (key == "pd") {
        if (!c.read_u64(&entry.point_digest)) return false;
      } else if (key == "workload") {
        if (!c.read_string(&entry.rec.workload)) return false;
        saw_workload = true;
      } else if (key == "status") {
        std::string status;
        if (!c.read_string(&status)) return false;
        entry.rec.status = point_status_from_string(status);
        saw_status = true;
      } else if (key == "retries") {
        std::uint64_t retries = 0;
        if (!c.read_u64(&retries)) return false;
        entry.rec.retries = static_cast<std::size_t>(retries);
      } else if (key == "wall_ms") {
        // Informational only: wall time is never serialized into reports,
        // so a resumed record keeps wall_ns = 0.
        double ignored = 0.0;
        if (!c.read_double(&ignored)) return false;
      } else if (key == "knobs") {
        if (!parse_pair_array(&c, false, &entry.rec.knobs, nullptr)) {
          return false;
        }
      } else if (key == "metrics") {
        if (!parse_pair_array(&c, true, nullptr, &entry.rec.metrics)) {
          return false;
        }
      } else if (key == "failure") {
        PointFailure failure;
        if (!parse_failure(&c, &failure)) return false;
        entry.rec.failure = failure;
      } else if (key == "psync") {
        if (!c.capture(&entry.rec.psync_json)) return false;
      } else if (key == "mesh") {
        if (!c.capture(&entry.rec.mesh_json)) return false;
      } else {
        if (!c.capture(nullptr)) return false;
      }
      if (c.expect('}')) break;
      if (!c.expect(',')) return false;
    }
  } catch (const SimulationError&) {
    return false;  // unknown status / failure-kind text
  }
  if (!c.at_end()) return false;  // trailing garbage
  if (!saw_version || !saw_index || !saw_seed || !saw_workload || !saw_status) {
    return false;
  }
  *out = std::move(entry);
  return true;
}

void admit_journal_entry(const JournalEntry& entry,
                         const std::vector<RunPoint>& points,
                         const std::string& workload,
                         const std::string& source) {
  const std::size_t idx = entry.rec.index;
  const char* differs = nullptr;
  if (idx >= points.size()) {
    differs = "index outside the grid";
  } else if (entry.seed != points[idx].seed) {
    differs = "seed";
  } else if (entry.rec.workload != workload) {
    differs = "workload";
  } else if (entry.point_digest != 0 &&
             entry.point_digest != points[idx].digest) {
    differs = "point digest";
  }
  if (differs == nullptr) return;
  throw JournalConflictError(
      "journal '" + source + "' point " + std::to_string(idx) +
      " does not match this sweep of " + std::to_string(points.size()) +
      " point(s) (" + differs + " differs); refusing to mix campaigns");
}

std::vector<JournalEntry> parse_journal(const std::vector<std::string>& lines,
                                        const std::string& source) {
  std::vector<JournalEntry> entries;
  for (const auto& line : lines) {
    if (!parse_journal_line(line, &entries.emplace_back())) {
      throw JournalCorruptError(source + ":" + std::to_string(entries.size()) +
                                ": corrupt journal line");
    }
  }
  return entries;
}

std::vector<JournalEntry> admit_sweep_journal(
    const std::vector<std::string>& lines, const std::string& source,
    const std::vector<RunPoint>& points, const std::string& workload) {
  std::vector<JournalEntry> entries = parse_journal(lines, source);
  for (const auto& entry : entries) {
    admit_journal_entry(entry, points, workload, source);
  }
  return entries;
}

}  // namespace psync::driver
