// Campaign layer: cooperative cancellation, the fsync'd checkpoint journal
// and its JSONL codec, kill/resume byte-equivalence of rendered sweeps,
// and PointGuard isolation (failure taxonomy, watchdog timeout + retry +
// quarantine, oom admission gate).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "psync/common/cancel.hpp"
#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"

namespace psync::driver {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "psync_campaign_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// ---------------------------------------------------------------------------
// CancelToken

TEST(CancelToken, FreshTokenPollsClean) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.poll());
}

TEST(CancelToken, ExplicitCancelThrowsOnPoll) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.expired());
  EXPECT_THROW(token.poll(), CancelledError);
}

TEST(CancelToken, ParentCancelPropagatesToChild) {
  CancelToken parent;
  CancelToken child;
  child.set_parent(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_THROW(child.poll(), CancelledError);
  // Only the explicit flag chains — the child's own state is untouched.
  child.set_parent(nullptr);
  EXPECT_FALSE(child.cancelled());
}

TEST(CancelToken, ResetDisarmsFlagDeadlineAndParent) {
  CancelToken parent;
  parent.cancel();
  CancelToken token;
  token.set_parent(&parent);
  token.cancel();
  token.set_deadline_ms(0.0);
  EXPECT_TRUE(token.expired());
  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.poll());
}

TEST(CancelToken, DeadlineExpiresOnWallClock) {
  CancelToken token;
  token.set_deadline_ms(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(token.expired());
  EXPECT_THROW(token.poll(), CancelledError);
  // CancelledError files under the base SimulationError too.
  EXPECT_THROW(token.poll(), SimulationError);
}

// ---------------------------------------------------------------------------
// JournalWriter / read_journal_lines

TEST(Journal, AppendAndReadBack) {
  const std::string path = temp_path("basic.jsonl");
  JournalWriter w;
  w.open(path, /*keep_existing=*/false);
  EXPECT_TRUE(w.is_open());
  w.append("first");
  w.append("second");
  w.close();
  EXPECT_EQ(read_journal_lines(path),
            (std::vector<std::string>{"first", "second"}));
  std::remove(path.c_str());
}

TEST(Journal, OpenTruncatesUnlessKeepExisting) {
  const std::string path = temp_path("modes.jsonl");
  {
    JournalWriter w;
    w.open(path, false);
    w.append("old");
  }
  {
    JournalWriter w;
    w.open(path, /*keep_existing=*/true);
    w.append("appended");
  }
  EXPECT_EQ(read_journal_lines(path),
            (std::vector<std::string>{"old", "appended"}));
  {
    JournalWriter w;
    w.open(path, /*keep_existing=*/false);
    w.append("fresh");
  }
  EXPECT_EQ(read_journal_lines(path), (std::vector<std::string>{"fresh"}));
  std::remove(path.c_str());
}

TEST(Journal, TornFinalLineIsDropped) {
  const std::string path = temp_path("torn.jsonl");
  write_file(path, "complete line\nhalf a li");
  EXPECT_EQ(read_journal_lines(path),
            (std::vector<std::string>{"complete line"}));
  std::remove(path.c_str());
}

TEST(Journal, ReopenTrimsTheTornTailBeforeAppending) {
  const std::string path = temp_path("torn_reopen.jsonl");
  write_file(path, "complete line\nhalf a li");
  JournalWriter w;
  w.open(path, /*keep_existing=*/true);
  w.append("next record");
  w.close();
  // The torn fragment must not fuse with the appended record.
  EXPECT_EQ(read_journal_lines(path),
            (std::vector<std::string>{"complete line", "next record"}));
  std::remove(path.c_str());
}

TEST(Journal, MissingFileReadsEmpty) {
  EXPECT_TRUE(read_journal_lines(temp_path("never_written.jsonl")).empty());
}

// ---------------------------------------------------------------------------
// Journal record codec

RunRecord sample_record() {
  RunRecord rec;
  rec.index = 7;
  rec.workload = "fft2d";
  rec.knobs = {{"processors", 16.0}, {"margin_db", -1.5}};
  rec.metrics = {{"total_us", 1.0 / 3.0, 2},
                 {"max_err", 4.2723285982897243e-08, -1},
                 {"count", 97.0, 0}};
  rec.retries = 2;
  return rec;
}

TEST(JournalCodec, RoundTripsBitExactDoubles) {
  const RunRecord rec = sample_record();
  const std::uint64_t seed = 0x9E3779B97F4A7C15ULL;  // > 2^53 on purpose
  JournalEntry entry;
  ASSERT_TRUE(parse_journal_line(journal_line(rec, seed), &entry));
  EXPECT_EQ(entry.seed, seed);
  EXPECT_EQ(entry.rec.index, rec.index);
  EXPECT_EQ(entry.rec.workload, rec.workload);
  EXPECT_EQ(entry.rec.status, PointStatus::kOk);
  EXPECT_EQ(entry.rec.retries, rec.retries);
  ASSERT_EQ(entry.rec.knobs.size(), rec.knobs.size());
  for (std::size_t i = 0; i < rec.knobs.size(); ++i) {
    EXPECT_EQ(entry.rec.knobs[i].first, rec.knobs[i].first);
    EXPECT_EQ(entry.rec.knobs[i].second, rec.knobs[i].second);  // bit-exact
  }
  ASSERT_EQ(entry.rec.metrics.size(), rec.metrics.size());
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    EXPECT_EQ(entry.rec.metrics[i].name, rec.metrics[i].name);
    EXPECT_EQ(entry.rec.metrics[i].value, rec.metrics[i].value);
    EXPECT_EQ(entry.rec.metrics[i].decimals, rec.metrics[i].decimals);
  }
  EXPECT_FALSE(entry.rec.failure.has_value());
}

TEST(JournalCodec, RoundTripsFailureWithEscapedMessage) {
  RunRecord rec = sample_record();
  rec.status = PointStatus::kQuarantined;
  rec.metrics.clear();
  rec.failure = PointFailure{FailureKind::kTimeout,
                             "line1\nline2 \"quoted\" back\\slash\ttab", 3};
  JournalEntry entry;
  ASSERT_TRUE(parse_journal_line(journal_line(rec, 1), &entry));
  EXPECT_EQ(entry.rec.status, PointStatus::kQuarantined);
  ASSERT_TRUE(entry.rec.failure.has_value());
  EXPECT_EQ(entry.rec.failure->kind, FailureKind::kTimeout);
  EXPECT_EQ(entry.rec.failure->message, rec.failure->message);
  EXPECT_EQ(entry.rec.failure->attempts, 3u);
}

TEST(JournalCodec, PreservesRawReportFragments) {
  RunRecord rec = sample_record();
  rec.psync_json = "{\"total_ns\":123.456,\"phases\":[{\"name\":\"x\"}]}";
  rec.mesh_json = "{\"total_ns\":9.5}";
  JournalEntry entry;
  ASSERT_TRUE(parse_journal_line(journal_line(rec, 1), &entry));
  EXPECT_EQ(entry.rec.psync_json, rec.psync_json);
  EXPECT_EQ(entry.rec.mesh_json, rec.mesh_json);
}

TEST(JournalCodec, EveryStrictPrefixFailsToParse) {
  RunRecord rec = sample_record();
  rec.failure = PointFailure{FailureKind::kInternalError, "boom", 1};
  rec.psync_json = "{\"a\":[1,2,{\"b\":\"}\"}]}";
  const std::string line = journal_line(rec, 42);
  JournalEntry entry;
  ASSERT_TRUE(parse_journal_line(line, &entry));
  for (std::size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(parse_journal_line(line.substr(0, len), &entry))
        << "prefix of length " << len << " parsed as complete";
  }
}

TEST(JournalCodec, RejectsGarbageAndWrongVersion) {
  JournalEntry entry;
  EXPECT_FALSE(parse_journal_line("", &entry));
  EXPECT_FALSE(parse_journal_line("not json", &entry));
  EXPECT_FALSE(parse_journal_line("{}", &entry));
  std::string v2 = journal_line(sample_record(), 1);
  v2.replace(v2.find("\"v\":1"), 5, "\"v\":2");
  EXPECT_FALSE(parse_journal_line(v2, &entry));
  // Trailing garbage after a well-formed record.
  EXPECT_FALSE(parse_journal_line(journal_line(sample_record(), 1) + "x",
                                  &entry));
}

// ---------------------------------------------------------------------------
// Kill/resume equivalence

ExperimentSpec resume_spec(const std::string& journal) {
  ExperimentSpec spec;
  spec.workload = "fft2d";
  spec.machine.processors = 4;
  spec.machine.matrix_rows = 32;
  spec.machine.matrix_cols = 32;
  spec.axes.push_back({"blocks", {1, 2, 4, 8}});
  spec.threads = 2;
  spec.journal_path = journal;
  return spec;
}

TEST(Resume, EveryJournalPrefixRendersIdenticalOutput) {
  const std::string journal = temp_path("resume.jsonl");
  auto spec = resume_spec(journal);

  const auto full = Session().run(spec);
  const std::string ref_json = sweep_json(full);
  const std::string ref_csv = sweep_csv(full);
  const auto lines = read_journal_lines(journal);
  ASSERT_EQ(lines.size(), 4u);

  auto truncated = spec;
  truncated.resume = true;
  for (std::size_t keep = 0; keep <= lines.size(); ++keep) {
    std::string content;
    for (std::size_t i = 0; i < keep; ++i) content += lines[i] + "\n";
    // Torn tail: half of the next record, no newline — must be ignored.
    if (keep < lines.size()) {
      content += lines[keep].substr(0, lines[keep].size() / 2);
    }
    write_file(journal, content);

    const auto resumed = Session().run(truncated);
    EXPECT_EQ(resumed.campaign.resumed, keep) << "keep=" << keep;
    EXPECT_EQ(sweep_json(resumed), ref_json) << "keep=" << keep;
    EXPECT_EQ(sweep_csv(resumed), ref_csv) << "keep=" << keep;
  }
  std::remove(journal.c_str());
}

TEST(Resume, CompletedJournalRunsNothing) {
  const std::string journal = temp_path("resume_done.jsonl");
  auto spec = resume_spec(journal);
  const auto full = Session().run(spec);

  auto again = spec;
  again.resume = true;
  const auto resumed = Session().run(again);
  EXPECT_EQ(resumed.campaign.resumed, 4u);
  EXPECT_EQ(resumed.campaign.ok, 4u);
  // Resumed records carry raw report fragments, not live reports.
  for (const auto& rec : resumed.records) {
    EXPECT_FALSE(rec.psync.has_value());
    EXPECT_FALSE(rec.psync_json.empty());
  }
  EXPECT_EQ(sweep_json(resumed), sweep_json(full));
  std::remove(journal.c_str());
}

TEST(Resume, MismatchedSeedIsRejected) {
  const std::string journal = temp_path("resume_seed.jsonl");
  auto spec = resume_spec(journal);
  (void)Session().run(spec);

  auto other = spec;
  other.resume = true;
  other.input_seed = spec.input_seed + 1;  // different campaign
  EXPECT_THROW((void)Session().run(other), SimulationError);
  std::remove(journal.c_str());
}

TEST(Resume, CorruptMiddleLineIsRejected) {
  const std::string journal = temp_path("resume_corrupt.jsonl");
  auto spec = resume_spec(journal);
  (void)Session().run(spec);
  auto lines = read_journal_lines(journal);
  ASSERT_GE(lines.size(), 2u);
  write_file(journal, "definitely not a record\n" + lines[1] + "\n");

  spec.resume = true;
  EXPECT_THROW((void)Session().run(spec), SimulationError);
  std::remove(journal.c_str());
}

TEST(Resume, WithoutJournalPathThrows) {
  ExperimentSpec spec = resume_spec("");
  spec.resume = true;
  EXPECT_THROW((void)Session().run(spec), SimulationError);
}

// ---------------------------------------------------------------------------
// PointGuard isolation

TEST(PointGuard, ConfigInvalidPointIsIsolated) {
  ExperimentSpec spec;
  spec.workload = "fft2d";
  spec.machine.matrix_rows = 32;
  spec.machine.matrix_cols = 32;
  // 12 does not divide 32: the machine constructor throws ConfigError.
  spec.axes.push_back({"processors", {8, 12, 16}});
  const auto result = Session().run(spec);

  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0].status, PointStatus::kOk);
  EXPECT_EQ(result.records[2].status, PointStatus::kOk);
  const auto& bad = result.records[1];
  EXPECT_EQ(bad.status, PointStatus::kFailed);
  ASSERT_TRUE(bad.failure.has_value());
  EXPECT_EQ(bad.failure->kind, FailureKind::kConfigInvalid);
  EXPECT_EQ(bad.failure->attempts, 1u);  // deterministic: no retry
  EXPECT_EQ(bad.knobs.size(), 1u);       // knobs survive for the report

  EXPECT_EQ(result.campaign.points, 3u);
  EXPECT_EQ(result.campaign.ok, 2u);
  EXPECT_EQ(result.campaign.failed, 1u);
  EXPECT_EQ(result.campaign.quarantined, 0u);
  EXPECT_FALSE(result.campaign.all_ok());

  // The status column appears in CSV/table only because a point failed.
  const std::string csv = sweep_csv(result);
  EXPECT_NE(csv.find("status"), std::string::npos);
  EXPECT_NE(csv.find("failed:config_invalid"), std::string::npos);
}

TEST(PointGuard, IsolationOffPropagatesTheException) {
  ExperimentSpec spec;
  spec.workload = "fft2d";
  spec.machine.matrix_rows = 32;
  spec.machine.matrix_cols = 32;
  spec.axes.push_back({"processors", {8, 12, 16}});
  spec.guard.isolate = false;
  EXPECT_THROW((void)Session().run(spec), ConfigError);
}

TEST(PointGuard, OomEstimateGateRefusesOversizedPoints) {
  ExperimentSpec spec;
  spec.workload = "fft2d";
  spec.machine.processors = 4;
  spec.machine.matrix_rows = 256;
  spec.machine.matrix_cols = 256;
  spec.guard.max_point_mb = 1;  // 256x256 complex working set is ~6 MiB
  const auto result = Session().run(spec);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].status, PointStatus::kFailed);
  ASSERT_TRUE(result.records[0].failure.has_value());
  EXPECT_EQ(result.records[0].failure->kind,
            FailureKind::kOomEstimateExceeded);
}

// Toy workload that spins until its cancel token fires whenever the `t_p`
// knob is nonzero (t_p is a registered knob, so the sweep schema accepts
// it; the mesh block it writes to is ignored here). The spin is bounded so
// a broken watchdog fails the test instead of hanging the suite.
class HangWorkload final : public Workload {
 public:
  std::string name() const override { return "hang_test"; }
  RunRecord run(const RunPoint& pt, core::Scratch&) const override {
    double hang = 0.0;
    for (const auto& [knob, value] : pt.knobs) {
      if (knob == "t_p") hang = value;
    }
    if (hang != 0.0) {
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start <
             std::chrono::seconds(10)) {
        if (pt.cancel != nullptr) pt.cancel->poll();
      }
      throw SimulationError("hang_test: watchdog never fired");
    }
    RunRecord rec;
    rec.metrics.push_back({"ran", 1.0, 0});
    return rec;
  }
};

TEST(PointGuard, WatchdogTimesOutRetriesAndQuarantines) {
  register_workload(std::make_unique<HangWorkload>());

  ExperimentSpec spec;
  spec.workload = "hang_test";
  spec.axes.push_back({"t_p", {0, 1, 0}});
  spec.guard.point_timeout_ms = 50.0;
  spec.guard.max_retries = 2;
  spec.guard.retry_backoff_ms = 1.0;
  const auto result = Session().run(spec);

  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0].status, PointStatus::kOk);
  EXPECT_EQ(result.records[2].status, PointStatus::kOk);
  const auto& hung = result.records[1];
  EXPECT_EQ(hung.status, PointStatus::kQuarantined);
  ASSERT_TRUE(hung.failure.has_value());
  EXPECT_EQ(hung.failure->kind, FailureKind::kTimeout);
  EXPECT_EQ(hung.failure->attempts, 3u);  // 1 try + 2 retries
  EXPECT_EQ(hung.retries, 2u);

  EXPECT_EQ(result.campaign.quarantined, 1u);
  EXPECT_EQ(result.campaign.retries, 2u);
  ASSERT_EQ(result.campaign.quarantine.size(), 1u);
  EXPECT_EQ(result.campaign.quarantine[0], 1u);
}

TEST(PointGuard, QuarantinedRecordSurvivesTheJournalRoundTrip) {
  register_workload(std::make_unique<HangWorkload>());

  const std::string journal = temp_path("quarantine.jsonl");
  ExperimentSpec spec;
  spec.workload = "hang_test";
  spec.axes.push_back({"t_p", {1, 0}});
  spec.guard.point_timeout_ms = 20.0;
  spec.guard.max_retries = 0;
  spec.journal_path = journal;
  const auto full = Session().run(spec);
  EXPECT_EQ(full.campaign.quarantined, 1u);

  auto again = spec;
  again.resume = true;
  const auto resumed = Session().run(again);
  EXPECT_EQ(resumed.campaign.resumed, 2u);
  EXPECT_EQ(resumed.campaign.quarantined, 1u);
  ASSERT_TRUE(resumed.records[0].failure.has_value());
  EXPECT_EQ(resumed.records[0].failure->kind, FailureKind::kTimeout);
  EXPECT_EQ(sweep_json(resumed), sweep_json(full));
  EXPECT_EQ(sweep_csv(resumed), sweep_csv(full));
  std::remove(journal.c_str());
}

TEST(Classify, MapsTheTaxonomy) {
  EXPECT_EQ(classify_failure(ConfigError("x")), FailureKind::kConfigInvalid);
  EXPECT_EQ(classify_failure(DivergenceError("x")), FailureKind::kSimDiverged);
  EXPECT_EQ(classify_failure(CancelledError("x")), FailureKind::kTimeout);
  EXPECT_EQ(classify_failure(ResourceLimitError("x")),
            FailureKind::kOomEstimateExceeded);
  EXPECT_EQ(classify_failure(SimulationError("x")),
            FailureKind::kInternalError);
  EXPECT_EQ(classify_failure(std::runtime_error("x")),
            FailureKind::kInternalError);
  EXPECT_FALSE(failure_is_retryable(FailureKind::kConfigInvalid));
  EXPECT_FALSE(failure_is_retryable(FailureKind::kSimDiverged));
  EXPECT_FALSE(failure_is_retryable(FailureKind::kOomEstimateExceeded));
  EXPECT_TRUE(failure_is_retryable(FailureKind::kTimeout));
  EXPECT_TRUE(failure_is_retryable(FailureKind::kInternalError));
}

}  // namespace
}  // namespace psync::driver
