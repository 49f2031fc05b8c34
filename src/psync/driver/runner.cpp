#include "psync/driver/runner.hpp"

#include <cstdio>
#include <sstream>

#include "psync/common/check.hpp"
#include "psync/common/json.hpp"
#include "psync/common/table.hpp"
#include "psync/core/trace.hpp"

namespace psync::driver {

namespace {

std::string format_knob(double v) {
  // Whole-valued knobs (processor counts, k, cores) print bare; fractional
  // ones (margins, rates) keep two decimals.
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  return format_double(v, 2);
}

std::string format_metric(const Metric& m) {
  if (m.decimals < 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1e", m.value);
    return buf;
  }
  return format_double(m.value, m.decimals);
}

// "ok" | "failed:<kind>" | "quarantined:<kind>" for status cells.
std::string format_status(const RunRecord& rec) {
  std::string s = to_string(rec.status);
  if (rec.failure) {
    s += ':';
    s += to_string(rec.failure->kind);
  }
  return s;
}

// Header/metric-layout donor: the first OK record (failed points carry no
// metrics). Falls back to the first record when every point failed.
const RunRecord& header_record(const SweepResult& result) {
  for (const auto& rec : result.records) {
    if (rec.status == PointStatus::kOk) return rec;
  }
  return result.records.front();
}

bool any_not_ok(const SweepResult& result) {
  for (const auto& rec : result.records) {
    if (rec.status != PointStatus::kOk) return true;
  }
  return false;
}

}  // namespace

std::string sweep_table(const SweepResult& result, const std::string& title) {
  PSYNC_CHECK(!result.records.empty());
  // Layout comes from the first OK record; the status column only appears
  // when some point failed, so all-ok sweeps render exactly as before.
  const auto& first = header_record(result);
  const bool with_status = any_not_ok(result);
  std::vector<std::string> header;
  for (const auto& [knob, value] : first.knobs) header.push_back(knob);
  for (const auto& m : first.metrics) header.push_back(m.name);
  if (with_status) header.push_back("status");
  if (header.empty()) header.push_back("workload");

  Table t(header);
  if (!title.empty()) t.set_title(title);
  for (const auto& rec : result.records) {
    auto& row = t.row();
    for (const auto& [knob, value] : rec.knobs) row.add(format_knob(value));
    if (rec.status == PointStatus::kOk) {
      for (const auto& m : rec.metrics) row.add(format_metric(m));
    } else {
      for (std::size_t m = 0; m < first.metrics.size(); ++m) row.add("-");
    }
    if (with_status) row.add(format_status(rec));
    if (rec.knobs.empty() && rec.metrics.empty() && !with_status) {
      row.add(rec.workload);
    }
  }
  return t.to_string();
}

std::string point_json(const RunRecord& rec) {
  // Same precision as the batch document so the serve daemon can stream
  // exactly the objects sweep_json would embed — byte for byte.
  std::ostringstream os;
  os.precision(12);
  os << "{\"index\":" << rec.index << ",\"status\":\"" << to_string(rec.status)
     << "\",\"knobs\":{";
  for (std::size_t k = 0; k < rec.knobs.size(); ++k) {
    if (k > 0) os << ',';
    os << '"' << rec.knobs[k].first << "\":" << rec.knobs[k].second;
  }
  os << "},\"metrics\":{";
  for (std::size_t m = 0; m < rec.metrics.size(); ++m) {
    if (m > 0) os << ',';
    os << '"' << rec.metrics[m].name << "\":" << rec.metrics[m].value;
  }
  os << '}';
  if (rec.failure) {
    os << ",\"failure\":{\"kind\":\"" << to_string(rec.failure->kind)
       << "\",\"message\":\"" << json::escape(rec.failure->message)
       << "\",\"attempts\":" << rec.failure->attempts << '}';
  }
  // Reports: live typed reports when the point ran in this process, raw
  // journal fragments (stored verbatim) when it was resumed or served
  // from the result cache — the bytes are identical either way.
  if (rec.psync) {
    os << ",\"report\":" << core::run_report_json(*rec.psync);
  } else if (!rec.psync_json.empty()) {
    os << ",\"report\":" << rec.psync_json;
  }
  if (rec.mesh) {
    os << ",\"mesh_report\":" << core::run_report_json(*rec.mesh);
  } else if (!rec.mesh_json.empty()) {
    os << ",\"mesh_report\":" << rec.mesh_json;
  }
  os << '}';
  return os.str();
}

std::string sweep_json(const SweepResult& result) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"schema_version\":" << core::kRunReportSchemaVersion
     << ",\"workload\":\"" << result.spec.workload << "\",\"campaign\":{"
     << "\"points\":" << result.campaign.points
     << ",\"ok\":" << result.campaign.ok
     << ",\"failed\":" << result.campaign.failed
     << ",\"quarantined\":" << result.campaign.quarantined
     << ",\"retried\":" << result.campaign.retries << "},\"points\":[";
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    if (i > 0) os << ',';
    os << point_json(result.records[i]);
  }
  os << "]}";
  return os.str();
}

std::string sweep_csv(const SweepResult& result) {
  PSYNC_CHECK(!result.records.empty());
  std::ostringstream os;
  os.precision(12);
  // Same layout rule as the table: columns from the first OK record, and a
  // status column only when some point failed (all-ok output is unchanged).
  const auto& first = header_record(result);
  const bool with_status = any_not_ok(result);
  bool col0 = true;
  for (const auto& [knob, value] : first.knobs) {
    if (!col0) os << ',';
    os << knob;
    col0 = false;
  }
  for (const auto& m : first.metrics) {
    if (!col0) os << ',';
    os << m.name;
    col0 = false;
  }
  if (with_status) {
    if (!col0) os << ',';
    os << "status";
    col0 = false;
  }
  os << '\n';
  for (const auto& rec : result.records) {
    col0 = true;
    for (const auto& [knob, value] : rec.knobs) {
      if (!col0) os << ',';
      os << value;
      col0 = false;
    }
    if (rec.status == PointStatus::kOk) {
      for (const auto& m : rec.metrics) {
        if (!col0) os << ',';
        os << m.value;
        col0 = false;
      }
    } else {
      for (std::size_t m = 0; m < first.metrics.size(); ++m) {
        if (!col0) os << ',';
        col0 = false;
      }
    }
    if (with_status) {
      if (!col0) os << ',';
      os << format_status(rec);
      col0 = false;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace psync::driver
