// Distributed sweeps (src/psync/dist): shard planning, the heartbeat wire
// codec, flock journal ownership, the crash-identical journal merge, the
// Session's shard window, and full leader/worker supervision over the one
// leader<->worker transport (framed TCP, journal shipped to the leader) —
// worker crash restart, wedge detection via heartbeat liveness,
// crash-loop quarantine, the restart budget, work stealing, lossy links,
// partition fencing and same-epoch reconnect — all asserted against the
// tentpole invariant: the merged output is byte-identical to a
// single-process run.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "psync/common/cancel.hpp"
#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/dist/merge.hpp"
#include "psync/dist/shard.hpp"
#include "psync/dist/supervisor.hpp"
#include "psync/dist/transport.hpp"
#include "psync/dist/worker.hpp"
#include "psync/driver/campaign.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "temp_dir.hpp"

namespace psync::dist {
namespace {

using driver::ExperimentSpec;
using driver::FailureKind;
using driver::PointStatus;
using driver::RunPoint;
using driver::RunRecord;
using driver::Session;
using driver::SweepEngine;

/// A journal base in a new directory, removed when the test ends: a stale
/// journal from an earlier run would otherwise be resumed (that's the
/// feature) and poison a test.
std::string fresh_base(const std::string& name) {
  return make_temp_dir("psync_dist_") + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Fault targets for forked workers, -1 when off. A test's LaunchHook sets
/// them just before each fork and the child inherits them; a worker that
/// reaches the grid index crashes or wedges there (DistTestWorkload).
std::int64_t g_crash_at = -1;
std::int64_t g_wedge_at = -1;

/// Clears the fault targets when a test ends, so the test process's own
/// serial runs never reach one.
struct FaultTargets {
  ~FaultTargets() { g_crash_at = g_wedge_at = -1; }
};

/// Cheap deterministic workload: the metric depends only on the point's
/// seed (which depends only on the global grid index), so any correctly
/// merged execution is byte-identical to a serial one. The t_p knob value
/// doubles as a per-point host sleep in ms, to give the leader's timing
/// machinery (stealing, liveness) something to observe.
class DistTestWorkload final : public driver::Workload {
 public:
  std::string name() const override { return "dist_test"; }
  RunRecord run(const RunPoint& pt, core::Scratch&) const override {
    const auto index = static_cast<std::int64_t>(pt.index);
    // Both faults strike after the point's start heartbeat went out, so
    // the leader has seen the index in flight. A crash is a hard _exit —
    // no unwinding, no journal line — the SIGKILL shape; its status 86 is
    // outside the worker's documented exit codes. A wedge stops the whole
    // process, heartbeat thread included, so only the liveness timeout
    // can catch it.
    if (index == g_crash_at) ::_exit(86);
    if (index == g_wedge_at) ::raise(SIGSTOP);
    double tp = 0.0;
    for (const auto& [knob, value] : pt.knobs) {
      if (knob == "t_p") tp = value;
    }
    if (tp > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(tp)));
    }
    RunRecord rec;
    rec.metrics.push_back(
        {"val", static_cast<double>(pt.seed % 1000003ULL) / 997.0, -1});
    return rec;
  }
};

ExperimentSpec make_spec(std::vector<double> tp_values) {
  driver::register_workload(std::make_unique<DistTestWorkload>());
  ExperimentSpec spec;
  spec.workload = "dist_test";
  spec.axes.push_back({"t_p", std::move(tp_values)});
  spec.threads = 1;
  spec.guard.max_retries = 0;
  return spec;
}

std::vector<double> uniform(std::size_t n, double v) {
  return std::vector<double>(n, v);
}

SupervisorOptions fast_opts(const std::string& base, std::size_t workers) {
  SupervisorOptions opts;
  opts.workers = workers;
  opts.journal_base = base;
  opts.heartbeat_ms = 10.0;
  opts.liveness_factor = 20.0;  // 200 ms — generous for loaded CI hosts
  opts.restart_backoff_ms = 1.0;
  opts.restart_backoff_max_ms = 10.0;
  opts.min_steal_points = 2;
  return opts;
}

// ---------------------------------------------------------------------------
// Shard planning

TEST(ShardPlan, BalancedContiguousGapFreeCover) {
  const auto shards = plan_shards(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 4u);  // 10 % 3 extra point goes first
  EXPECT_EQ(shards[1].begin, 4u);
  EXPECT_EQ(shards[1].end, 7u);
  EXPECT_EQ(shards[2].begin, 7u);
  EXPECT_EQ(shards[2].end, 10u);
}

TEST(ShardPlan, MoreWorkersThanPointsYieldsSingletons) {
  const auto shards = plan_shards(3, 8);
  ASSERT_EQ(shards.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(shards[i].begin, i);
    EXPECT_EQ(shards[i].end, i + 1);
  }
}

TEST(ShardPlan, EdgeCases) {
  EXPECT_TRUE(plan_shards(0, 4).empty());
  const auto zero_workers = plan_shards(5, 0);  // treated as one worker
  ASSERT_EQ(zero_workers.size(), 1u);
  EXPECT_EQ(zero_workers[0].size(), 5u);
}

TEST(ShardPlan, SplitRangePreservesWindow) {
  const auto chunks = split_range({10, 21}, 4);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks.front().begin, 10u);
  EXPECT_EQ(chunks.back().end, 21u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].begin, chunks[i - 1].end);  // gap-free
    EXPECT_GE(chunks[i - 1].size(), chunks[i].size());
  }
}

TEST(ShardPlan, JournalNaming) {
  EXPECT_EQ(shard_journal_path("/tmp/base", 2), "/tmp/base.shard2.jsonl");
  EXPECT_EQ(shard_journal_path("/tmp/base", 2, 3),
            "/tmp/base.shard2.steal3.jsonl");
}

// ---------------------------------------------------------------------------
// Heartbeat wire codec

TEST(HeartbeatCodec, RoundTripsEveryKind) {
  for (const auto kind :
       {Heartbeat::Kind::kProgress, Heartbeat::Kind::kPointStart,
        Heartbeat::Kind::kPointDone}) {
    Heartbeat hb;
    hb.shard = 7;
    hb.kind = kind;
    hb.points_done = 42;
    hb.inflight = kind == Heartbeat::Kind::kPointStart ? 1337 : -1;
    Heartbeat parsed;
    ASSERT_TRUE(parse_heartbeat_line(heartbeat_line(hb), &parsed));
    EXPECT_EQ(parsed.shard, hb.shard);
    EXPECT_EQ(parsed.kind, hb.kind);
    EXPECT_EQ(parsed.points_done, hb.points_done);
    EXPECT_EQ(parsed.inflight, hb.inflight);
  }
}

TEST(HeartbeatCodec, RejectsGarbage) {
  Heartbeat hb;
  EXPECT_FALSE(parse_heartbeat_line("", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb 1 x 0 -", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb 1 p 0", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb 1 p 0 - trailing", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb one p 0 -", &hb));
  EXPECT_FALSE(parse_heartbeat_line("xx 1 p 0 -", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb 1 p 0 -\n", &hb));  // raw newline
}

// ---------------------------------------------------------------------------
// Journal ownership (flock)

TEST(JournalLock, SecondOpenerGetsTypedBusyError) {
  const std::string path = fresh_base("lock.jsonl");
  JournalWriter owner;
  owner.open(path, /*keep_existing=*/false);
  owner.append("held");
  JournalWriter intruder;
  EXPECT_THROW(intruder.open(path, /*keep_existing=*/true), JournalBusyError);
  // The refused open must not have truncated or corrupted the journal.
  owner.append("still mine");
  owner.close();
  EXPECT_EQ(read_journal_lines(path),
            (std::vector<std::string>{"held", "still mine"}));
  // Ownership is releasable: after close the lock is free.
  JournalWriter next;
  EXPECT_NO_THROW(next.open(path, /*keep_existing=*/true));
  next.close();
  std::remove(path.c_str());
}

TEST(JournalLock, BusyIsASimulationErrorSubtype) {
  const std::string path = fresh_base("lock2.jsonl");
  JournalWriter owner;
  owner.open(path, false);
  JournalWriter intruder;
  EXPECT_THROW(intruder.open(path, true), SimulationError);
  owner.close();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Journal merge

/// A complete shard journal file for `range`, built from a serial run.
void write_journal_for(const ExperimentSpec& spec, const ShardRange& range,
                       const std::string& path) {
  ExperimentSpec shard = spec;
  shard.shard_begin = range.begin;
  shard.shard_end = range.end;
  shard.journal_path = path;
  (void)Session().run(shard);
}

TEST(Merge, ReassemblesInterleavedShardsInGridOrder) {
  const auto spec = make_spec(uniform(9, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string base = fresh_base("merge");
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 3; ++s) {
    paths.push_back(shard_journal_path(base, s));
    write_journal_for(spec, {s * 3, s * 3 + 3}, paths.back());
  }
  const MergedJournal merged = merge_journals(points, "dist_test", paths);
  EXPECT_TRUE(merged.missing.empty());
  EXPECT_EQ(merged.duplicates, 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(merged.records[i].index, i);
    EXPECT_EQ(merged.records[i].status, PointStatus::kOk);
  }
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(Merge, AgreeingDuplicatesAreDedupedFirstWins) {
  const auto spec = make_spec(uniform(4, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string base = fresh_base("dup");
  const std::string a = shard_journal_path(base, 0);
  const std::string b = shard_journal_path(base, 0, 1);
  write_journal_for(spec, {0, 4}, a);
  write_journal_for(spec, {2, 4}, b);  // overlaps points 2, 3
  const MergedJournal merged = merge_journals(points, "dist_test", {a, b});
  EXPECT_TRUE(merged.missing.empty());
  EXPECT_EQ(merged.duplicates, 2u);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, ConflictingDuplicateStatusIsATypedError) {
  const auto spec = make_spec(uniform(2, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string base = fresh_base("conflict");
  RunRecord ok;
  ok.index = 1;
  ok.workload = "dist_test";
  ok.metrics.push_back({"val", 1.0, 2});
  RunRecord failed = ok;
  failed.status = PointStatus::kFailed;
  failed.metrics.clear();
  failed.failure =
      driver::PointFailure{FailureKind::kInternalError, "boom", 1};
  const std::string a = base + ".a.jsonl";
  const std::string b = base + ".b.jsonl";
  write_file(a, driver::journal_line(ok, points[1].seed) + "\n");
  write_file(b, driver::journal_line(failed, points[1].seed) + "\n");
  EXPECT_THROW(merge_journals(points, "dist_test", {a, b}),
               JournalConflictError);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, OutOfGridAndMismatchedCampaignsAreTypedErrors) {
  const auto spec = make_spec(uniform(2, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string path = fresh_base("alien.jsonl");
  RunRecord rec;
  rec.index = 99;  // outside the 2-point grid
  rec.workload = "dist_test";
  write_file(path, driver::journal_line(rec, 1) + "\n");
  EXPECT_THROW(merge_journals(points, "dist_test", {path}),
               JournalConflictError);
  rec.index = 0;  // in grid, wrong seed
  write_file(path, driver::journal_line(rec, points[0].seed + 1) + "\n");
  EXPECT_THROW(merge_journals(points, "dist_test", {path}),
               JournalConflictError);
  std::remove(path.c_str());
}

// Two grids of one workload and base seed share every point seed, so only
// the point digest tells a journal of the other grid apart.
TEST(Merge, SameSeedsAndWorkloadButAnotherGridsDigestIsAConflict) {
  const auto other = make_spec(uniform(4, 0.0));
  const auto spec = make_spec(uniform(4, 1.0));
  const auto points = SweepEngine::expand(spec);
  const auto other_points = SweepEngine::expand(other);
  ASSERT_EQ(points[0].seed, other_points[0].seed);
  ASSERT_NE(points[0].digest, other_points[0].digest);
  const std::string path = shard_journal_path(fresh_base("otherdigest"), 0);
  write_journal_for(other, {0, 2}, path);
  EXPECT_NO_THROW(merge_journals(other_points, "dist_test", {path}));
  EXPECT_THROW(merge_journals(points, "dist_test", {path}),
               JournalConflictError);
  std::remove(path.c_str());
}

TEST(Merge, CorruptLineIsATypedError) {
  const auto spec = make_spec(uniform(2, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string path = fresh_base("corrupt.jsonl");
  write_file(path, "{not a journal line}\n");
  EXPECT_THROW(merge_journals(points, "dist_test", {path}),
               JournalCorruptError);
  std::remove(path.c_str());
}

TEST(Merge, MissingFilesAndPointsAreReportedNotInvented) {
  const auto spec = make_spec(uniform(6, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string base = fresh_base("sparse");
  const std::string have = shard_journal_path(base, 0);
  write_journal_for(spec, {0, 3}, have);
  const MergedJournal merged = merge_journals(
      points, "dist_test", {have, shard_journal_path(base, 1)});
  EXPECT_EQ(merged.missing, (std::vector<std::size_t>{3, 4, 5}));
  std::remove(have.c_str());
}

// ---------------------------------------------------------------------------
// Session shard window

TEST(RunnerShard, WindowLimitsExecutionAndAccounting) {
  auto spec = make_spec(uniform(8, 0.0));
  spec.shard_begin = 2;
  spec.shard_end = 5;
  const auto result = Session().run(spec);
  ASSERT_EQ(result.records.size(), 8u);
  EXPECT_EQ(result.campaign.points, 3u);
  EXPECT_EQ(result.campaign.ok, 3u);
  for (std::size_t i = 0; i < 8; ++i) {
    const bool in_window = i >= 2 && i < 5;
    EXPECT_EQ(!result.records[i].metrics.empty(), in_window) << "point " << i;
  }
}

TEST(RunnerShard, InvertedWindowIsAConfigError) {
  auto spec = make_spec(uniform(4, 0.0));
  spec.shard_begin = 3;
  spec.shard_end = 1;
  EXPECT_THROW(Session().run(spec), ConfigError);
}

TEST(RunnerShard, ResumeToleratesOutOfWindowEntries) {
  // A replacement worker can inherit a journal whose range was since
  // re-partitioned: entries outside its window are spliced, not errors,
  // and only in-window entries count as resumed.
  auto spec = make_spec(uniform(6, 0.0));
  const std::string journal = fresh_base("window.jsonl");
  spec.journal_path = journal;
  (void)Session().run(spec);  // full-grid journal: 6 entries

  auto windowed = spec;
  windowed.resume = true;
  windowed.shard_begin = 4;
  windowed.shard_end = 6;
  const auto result = Session().run(windowed);
  EXPECT_EQ(result.campaign.resumed, 2u);  // only the in-window entries
  EXPECT_EQ(result.campaign.points, 2u);
  std::remove(journal.c_str());
}

// ---------------------------------------------------------------------------
// Distributed execution (in-process fork workers dialing the leader over
// loopback TCP)

bool has_incident(const driver::SweepResult& r, FailureKind kind) {
  for (const auto& incident : r.campaign.worker_failures) {
    if (incident.kind == kind) return true;
  }
  return false;
}

TEST(Distributed, MatchesSerialRunByteForByte) {
  const auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("happy");
  const auto dist = run_distributed(spec, fast_opts(base, 3));
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_EQ(dist.campaign.worker_restarts, 0u);
  EXPECT_EQ(dist.campaign.worker_fenced, 0u);
  EXPECT_TRUE(dist.campaign.worker_failures.empty());
}

// A leader rerun on a used journal base splices the journaled points and
// reports them as resumed, as a serial --resume does: first with one
// shard's journal holding a prefix of its window, then with every point
// journaled by a completed run. Stealing is off so that every point lands
// in its shard's journal, which is all a rerun reads.
TEST(Distributed, RerunOnAUsedBaseReportsJournaledPointsAsResumed) {
  const auto spec = make_spec(uniform(6, 0.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("rerun");
  auto opts = fast_opts(base, 2);
  opts.min_steal_points = 7;
  write_journal_for(spec, {0, 2}, shard_journal_path(base, 0));
  const auto partial = run_distributed(spec, opts);
  EXPECT_EQ(partial.campaign.resumed, 2u);
  EXPECT_EQ(partial.campaign.worker_steals, 0u);
  EXPECT_EQ(driver::sweep_json(partial), driver::sweep_json(serial));

  const auto rerun = run_distributed(spec, opts);
  EXPECT_EQ(rerun.campaign.resumed, 6u);
  EXPECT_EQ(driver::sweep_json(rerun), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(rerun), driver::sweep_csv(serial));
  for (std::size_t s = 0; s < 2; ++s) {
    std::remove(shard_journal_path(base, s).c_str());
  }
}

// A rerun on a base where an earlier run's steals split both shards: the
// tails of shard 0 ([0, 4) of 2 workers) sit in `.steal1` and `.steal2`,
// the tail of shard 1 ([4, 8)) in `.steal1`. Every point is journaled, so
// the leader reports all of them as resumed and launches no worker.
TEST(Distributed, RerunReadsAnEarlierRunsStealJournals) {
  const auto spec = make_spec(uniform(8, 0.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("rerun_steal");
  const std::vector<std::pair<std::string, ShardRange>> journals = {
      {shard_journal_path(base, 0), {0, 2}},
      {shard_journal_path(base, 0, 1), {2, 3}},
      {shard_journal_path(base, 0, 2), {3, 4}},
      {shard_journal_path(base, 1), {4, 5}},
      {shard_journal_path(base, 1, 1), {5, 8}}};
  for (const auto& [path, range] : journals) {
    write_journal_for(spec, range, path);
  }
  std::size_t launches = 0;
  const auto rerun = run_distributed(spec, fast_opts(base, 2),
                                     [&](WorkerConfig&) { ++launches; });
  EXPECT_EQ(launches, 0u);
  EXPECT_EQ(rerun.campaign.resumed, 8u);
  EXPECT_EQ(rerun.campaign.worker_steals, 0u);
  EXPECT_EQ(driver::sweep_json(rerun), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(rerun), driver::sweep_csv(serial));
  for (const auto& journal : journals) std::remove(journal.first.c_str());
}

// The window a worker gets stops short of a tail an earlier run stole:
// shard 1 ([4, 8) of 2 workers) launches on [4, 6) when `.steal1` holds
// [6, 8). Stealing is off so that each shard launches exactly once.
TEST(Distributed, LaunchWindowStopsBeforeAStolenTail) {
  const auto spec = make_spec(uniform(8, 0.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("stolen_tail");
  write_journal_for(spec, {6, 8}, shard_journal_path(base, 1, 1));
  auto opts = fast_opts(base, 2);
  opts.min_steal_points = 9;
  std::map<std::size_t, ShardRange> window;
  const auto rerun = run_distributed(
      spec, opts, [&](WorkerConfig& cfg) { window[cfg.shard] = cfg.range; });
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].begin, 0u);
  EXPECT_EQ(window[0].end, 4u);
  EXPECT_EQ(window[1].begin, 4u);
  EXPECT_EQ(window[1].end, 6u);
  EXPECT_EQ(rerun.campaign.resumed, 2u);
  EXPECT_EQ(driver::sweep_json(rerun), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(rerun), driver::sweep_csv(serial));
  for (std::size_t s = 0; s < 2; ++s) {
    std::remove(shard_journal_path(base, s).c_str());
  }
  std::remove(shard_journal_path(base, 1, 1).c_str());
}

TEST(Distributed, MissingJournalBaseIsAConfigError) {
  const auto spec = make_spec(uniform(4, 0.0));
  SupervisorOptions opts;
  opts.workers = 2;  // journal_base left empty
  EXPECT_THROW(run_distributed(spec, opts), ConfigError);
}

// A journal base left by another grid's run: the leader must refuse the
// stale shard journal (not merge its records as this sweep's points), and
// must not leave the worker it already forked behind.
TEST(Distributed, StaleShardJournalOfAnotherGridIsAConflict) {
  const auto other = make_spec(uniform(4, 0.0));
  const auto spec = make_spec(uniform(4, 1.0));
  const std::string base = fresh_base("stale");
  const std::string stale = shard_journal_path(base, 1);
  write_journal_for(other, {2, 4}, stale);  // shard 1's range of 2 workers
  EXPECT_THROW(run_distributed(spec, fast_opts(base, 2)),
               JournalConflictError);
  int wstatus = 0;
  EXPECT_EQ(::waitpid(-1, &wstatus, WNOHANG), -1) << "a worker outlived it";
  std::remove(stale.c_str());
  std::remove(shard_journal_path(base, 0).c_str());
}

TEST(Distributed, AlreadyCancelledLeaderThrowsCancelled) {
  auto spec = make_spec(uniform(4, 0.0));
  CancelToken cancel;
  cancel.cancel();
  spec.cancel = &cancel;
  EXPECT_THROW(run_distributed(spec, fast_opts(fresh_base("precancel"), 2)),
               CancelledError);
}

TEST(Distributed, CrashedWorkerIsRestartedAndOutputIsIdentical) {
  const auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("crash");
  // First launch of shard 1 dies mid-shard with a hard _exit (no unwind,
  // no flush beyond the records already shipped) — the SIGKILL shape.
  const FaultTargets reset;
  const LaunchHook hook = [](WorkerConfig& cfg) {
    g_crash_at = cfg.shard == 1 && cfg.generation == 0
                     ? static_cast<std::int64_t>(cfg.range.begin + 1)
                     : -1;
  };
  auto opts = fast_opts(base, 3);
  // No stealing: if the other seats go idle before the crash is reaped
  // they would reclaim the dying shard as a steal, and this test is about
  // the restart path specifically (stealing has its own test).
  opts.steal = false;
  const auto dist = run_distributed(spec, opts, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_GE(dist.campaign.worker_restarts, 1u);
  EXPECT_TRUE(has_incident(dist, FailureKind::kInternalError));
}

TEST(Distributed, WedgedWorkerIsKilledByLivenessAndOutputIsIdentical) {
  const auto spec = make_spec(uniform(8, 1.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("wedge");
  auto opts = fast_opts(base, 2);
  opts.heartbeat_ms = 10.0;
  opts.liveness_factor = 8.0;  // 80 ms of silence = wedged
  opts.term_grace_ms = 200.0;
  // No stealing: the idle seat would otherwise SIGTERM the wedged worker
  // for its range before the liveness timeout gets to prove itself.
  opts.steal = false;
  // First launch of shard 0 goes silent (the whole process stopped) at
  // its second point while its connection stays open — only the liveness
  // timeout can catch this.
  const FaultTargets reset;
  const LaunchHook hook = [](WorkerConfig& cfg) {
    g_wedge_at = cfg.shard == 0 && cfg.generation == 0
                     ? static_cast<std::int64_t>(cfg.range.begin + 1)
                     : -1;
  };
  const auto dist = run_distributed(spec, opts, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_GE(dist.campaign.worker_restarts, 1u);
  EXPECT_TRUE(has_incident(dist, FailureKind::kTimeout))
      << "liveness timeout should be in the taxonomy";
  EXPECT_FALSE(has_incident(dist, FailureKind::kConnectionLost))
      << "a silent worker that is still connected is wedged, not lost";
}

TEST(Distributed, CrashLoopingPointIsQuarantinedNotFatal) {
  const auto spec = make_spec(uniform(9, 0.0));
  const std::string base = fresh_base("quarantine");
  auto opts = fast_opts(base, 3);
  opts.crash_quarantine_after = 2;
  // Point 4 kills its worker on every launch, forever.
  const FaultTargets reset;
  const LaunchHook hook = [](WorkerConfig& cfg) {
    g_crash_at = cfg.range.contains(4) ? 4 : -1;
  };
  const auto dist = run_distributed(spec, opts, hook);
  ASSERT_EQ(dist.records.size(), 9u);
  EXPECT_EQ(dist.records[4].status, PointStatus::kQuarantined);
  ASSERT_TRUE(dist.records[4].failure.has_value());
  EXPECT_EQ(dist.records[4].failure->kind, FailureKind::kWorkerCrash);
  EXPECT_EQ(dist.campaign.quarantined, 1u);
  EXPECT_EQ(dist.campaign.ok, 8u);  // the sweep itself survived
  EXPECT_TRUE(has_incident(dist, FailureKind::kWorkerCrash));
  // Byte identity against the serial run handed the same verdict.
  auto quarantined = spec;
  quarantined.quarantine_indices = {4};
  const auto serial = Session().run(quarantined);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
}

TEST(Distributed, ShardAbandonedAfterRestartBudgetReportsItsPointsFailed) {
  const auto spec = make_spec(uniform(6, 0.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("abandon");
  auto opts = fast_opts(base, 2);
  opts.crash_quarantine_after = 1000;  // crash forever, never quarantine
  opts.steal = false;  // a steal would hand shard 0's range to a new chunk
  // Every launch of shard 0 ([0, 3) of 2 workers) dies on its first point.
  std::size_t shard0_launches = 0;
  const FaultTargets reset;
  const LaunchHook hook = [&](WorkerConfig& cfg) {
    g_crash_at = -1;
    if (cfg.shard != 0) return;
    ++shard0_launches;
    g_crash_at = static_cast<std::int64_t>(cfg.range.begin);
  };
  const auto dist = run_distributed(spec, opts, hook);

  // The budget: one launch plus five restarts, then the shard is given up.
  EXPECT_EQ(shard0_launches, 6u);
  EXPECT_EQ(dist.campaign.worker_restarts, 5u);
  bool abandoned = false;
  for (const auto& incident : dist.campaign.worker_failures) {
    if (incident.kind == FailureKind::kWorkerCrash &&
        incident.message.find("shard 0 abandoned after 5 restart(s)") !=
            std::string::npos) {
      abandoned = true;
    }
  }
  EXPECT_TRUE(abandoned) << "the abandonment incident is missing";

  ASSERT_EQ(dist.records.size(), 6u);
  EXPECT_EQ(dist.campaign.failed, 3u);
  EXPECT_EQ(dist.campaign.ok, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(dist.records[i].status, PointStatus::kFailed) << i;
    ASSERT_TRUE(dist.records[i].failure.has_value()) << i;
    EXPECT_EQ(dist.records[i].failure->kind, FailureKind::kWorkerCrash);
    EXPECT_EQ(dist.records[i].failure->message,
              "shard abandoned after exhausting worker restarts");
  }
  // Shard 1 ran undisturbed: rendered with shard 0's points failed the
  // same way, the serial run matches byte for byte.
  auto expected = serial;
  for (std::size_t i = 0; i < 3; ++i) {
    RunRecord rec;
    rec.index = i;
    rec.workload = spec.workload;
    rec.knobs = serial.records[i].knobs;
    rec.status = PointStatus::kFailed;
    rec.failure = dist.records[i].failure;
    expected.records[i] = std::move(rec);
  }
  expected.campaign = driver::summarize_campaign(expected.records);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(expected));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(expected));
}

TEST(Distributed, IdleWorkersStealFromStragglersAndOutputIsIdentical) {
  // Shard 0's points are instant, shard 1's are slow: the first seat goes
  // idle early and must reclaim part of the straggler's range.
  std::vector<double> tp = uniform(6, 0.0);
  const auto slow = uniform(6, 40.0);
  tp.insert(tp.end(), slow.begin(), slow.end());
  const auto spec = make_spec(std::move(tp));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("steal");
  auto opts = fast_opts(base, 2);
  opts.term_grace_ms = 2000.0;
  const auto dist = run_distributed(spec, opts);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_GE(dist.campaign.worker_steals, 1u);
}

TEST(Distributed, ChaosLossyLinksStillProduceIdenticalOutput) {
  const auto spec = make_spec(uniform(12, 2.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("chaos");
  auto opts = fast_opts(base, 3);
  // Every link drops, duplicates, reorders and delays frames. The
  // correctness claim: at-least-once shipping + leader dedup + the
  // journal merge make all of this invisible in the output.
  const LaunchHook hook = [](WorkerConfig& cfg) {
    cfg.chaos.seed = 1000 + cfg.shard;
    cfg.chaos.drop = 0.15;
    cfg.chaos.duplicate = 0.15;
    cfg.chaos.reorder = 0.1;
    cfg.chaos.delay = 0.1;
    cfg.chaos.delay_ms = 10.0;
  };
  const auto dist = run_distributed(spec, opts, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_EQ(dist.campaign.failed, 0u);
}

// A leader scripted frame by frame on a real loopback socket, for the
// worker's side of the protocol over real TCP. It accepts the worker's
// connections one after another and hands each frame to `answer` with the
// connection's ordinal (0 = first) and fd; kHangUp closes that connection,
// kHangUpLast closes it and stops serving. Otherwise it returns once the
// worker closes a connection itself, which it does when it exits or is
// fenced. It returns every frame received, per connection.
enum class Answer { kKeep, kHangUp, kHangUpLast };
using ScriptedAnswer =
    std::function<Answer(std::size_t conn, const Frame& frame, int fd)>;

std::vector<std::vector<Frame>> scripted_leader(int listen_fd,
                                                const ScriptedAnswer& answer) {
  std::vector<std::vector<Frame>> conns;
  for (;;) {
    pollfd lp{listen_fd, POLLIN, 0};
    if (::poll(&lp, 1, 10000) != 1) {
      ADD_FAILURE() << "the worker never dialed";
      return conns;
    }
    const int fd = tcp_accept(listen_fd);
    if (fd < 0) continue;
    conns.emplace_back();
    FrameDecoder decoder;
    Answer last = Answer::kKeep;
    for (bool open = true; last == Answer::kKeep;) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10000) != 1) {
        ADD_FAILURE() << "the worker went silent";
        open = false;
      } else {
        open = read_frames(fd, &decoder);
      }
      Frame frame;
      while (last == Answer::kKeep &&
             decoder.next(&frame) == FrameDecoder::Result::kFrame) {
        conns.back().push_back(frame);
        last = answer(conns.size() - 1, frame, fd);
      }
      if (!open) last = Answer::kHangUpLast;
    }
    ::close(fd);
    if (last == Answer::kHangUpLast) return conns;
  }
}

void ack_journal(const Frame& frame, int fd) {
  std::size_t index = 0;
  std::string line;
  ASSERT_TRUE(parse_journal_payload(frame.payload, &index, &line));
  ASSERT_TRUE(send_frame(fd, {FrameKind::kJournalAck, journal_ack_payload(index)},
                         /*keep_waiting=*/true));
}

std::vector<std::size_t> journal_indices(const std::vector<Frame>& frames) {
  std::vector<std::size_t> out;
  for (const Frame& f : frames) {
    std::size_t index = 0;
    std::string line;
    if (f.kind == FrameKind::kJournal &&
        parse_journal_payload(f.payload, &index, &line)) {
      out.push_back(index);
    }
  }
  return out;
}

HelloClaim claim_of(const std::vector<Frame>& conn) {
  HelloClaim claim;
  EXPECT_FALSE(conn.empty());
  if (!conn.empty()) {
    EXPECT_EQ(conn.front().kind, FrameKind::kHello);
    EXPECT_TRUE(parse_hello_payload(conn.front().payload, &claim));
  }
  return claim;
}

WorkerConfig scripted_worker(std::uint16_t port, ShardRange range) {
  WorkerConfig cfg;
  cfg.shard = 2;
  cfg.epoch = 7;
  cfg.range = range;
  cfg.heartbeat_ms = 10.0;
  cfg.connect_host = "127.0.0.1";
  cfg.connect_port = port;
  return cfg;
}

// The worker's side of the zombie story, over real TCP: its connection
// drops (a partition, seen from the worker), it redials with the same
// lease, and the leader answers "fenced" as one that gave the shard away
// does. The worker must stand down with exit 5, sending nothing after the
// fence, while points are still left to run. When a leader revokes a
// partitioned worker's epoch, its relaunch and the byte-identical output
// are the leader simulator's to check (test_leader_sim.cpp).
TEST(Distributed, PartitionedWorkerIsFencedOnReconnect) {
  const auto spec = make_spec(uniform(10, 30.0));
  std::uint16_t port = 0;
  const int listen_fd = tcp_listen("127.0.0.1", 0, &port);
  std::vector<std::vector<Frame>> conns;
  std::thread leader([&] {
    conns = scripted_leader(listen_fd, [](std::size_t conn, const Frame& f,
                                          int fd) {
      if (f.kind != FrameKind::kHello) {
        return conn == 0 ? Answer::kHangUp : Answer::kKeep;
      }
      if (conn == 0) {
        EXPECT_TRUE(send_frame(fd, {FrameKind::kHelloAck, kHelloAckOk},
                               /*keep_waiting=*/true));
        return Answer::kKeep;
      }
      // As LeaderCore does: the fenced ack, then the close right behind it.
      EXPECT_TRUE(send_frame(fd, {FrameKind::kHelloAck, "fenced stale epoch 7"},
                             /*keep_waiting=*/true));
      return Answer::kHangUpLast;
    });
  });
  EXPECT_EQ(run_worker(spec, scripted_worker(port, {0, 10})),
            kWorkerExitFenced);
  leader.join();
  pollfd lp{listen_fd, POLLIN, 0};
  EXPECT_EQ(::poll(&lp, 1, 0), 0) << "a fenced worker dials no more";
  ::close(listen_fd);
  ASSERT_EQ(conns.size(), 2u);
  EXPECT_EQ(claim_of(conns[1]).epoch, claim_of(conns[0]).epoch)
      << "a redial claims the same lease";
  EXPECT_EQ(conns[1].size(), 1u) << "nothing but the HELLO before the fence";
}

// A same-lease reconnect over real TCP: the leader reads the worker's
// first two journal records without acking them and drops the
// connection. The worker redials with the same (shard, epoch), sends the
// unacked tail again once the new hello-ack accepts it, and exits 0 once
// every record of its window is acked. That a leader welcomes such a
// reconnect inside its liveness window is the leader simulator's to check.
TEST(Distributed, ReconnectingWorkerResumesWithoutDataLoss) {
  const auto spec = make_spec(uniform(6, 5.0));
  std::uint16_t port = 0;
  const int listen_fd = tcp_listen("127.0.0.1", 0, &port);
  std::vector<std::vector<Frame>> conns;
  std::thread leader([&] {
    std::size_t dropped = 0;
    conns = scripted_leader(listen_fd, [&](std::size_t conn, const Frame& f,
                                           int fd) {
      if (f.kind == FrameKind::kHello) {
        EXPECT_TRUE(send_frame(fd, {FrameKind::kHelloAck, kHelloAckOk},
                               /*keep_waiting=*/true));
      } else if (f.kind == FrameKind::kJournal) {
        if (conn == 0) return ++dropped == 2 ? Answer::kHangUp : Answer::kKeep;
        ack_journal(f, fd);
      }
      return Answer::kKeep;
    });
  });
  EXPECT_EQ(run_worker(spec, scripted_worker(port, {0, 6})), kWorkerExitOk);
  leader.join();
  ::close(listen_fd);
  ASSERT_EQ(conns.size(), 2u);
  EXPECT_EQ(claim_of(conns[1]).epoch, claim_of(conns[0]).epoch);
  EXPECT_EQ(journal_indices(conns[0]).size(), 2u);
  const std::vector<std::size_t> resent = journal_indices(conns[1]);
  EXPECT_EQ(std::set<std::size_t>(resent.begin(), resent.end()),
            (std::set<std::size_t>{0, 1, 2, 3, 4, 5}))
      << "the unacked records went again and the rest followed";
}

// A fence that lands during the worker's final flush: the leader reads
// every journal record of the window without acking one, drops the
// connection after the last, and fences the redial. The window is
// computed but no record of it was acked, so the worker did not complete
// it and must exit 5, not 0.
TEST(Distributed, WorkerFencedDuringItsFinalFlushExitsFenced) {
  const auto spec = make_spec(uniform(3, 0.0));
  std::uint16_t port = 0;
  const int listen_fd = tcp_listen("127.0.0.1", 0, &port);
  std::vector<std::vector<Frame>> conns;
  std::thread leader([&] {
    std::size_t shipped = 0;
    conns = scripted_leader(listen_fd, [&](std::size_t conn, const Frame& f,
                                           int fd) {
      if (f.kind == FrameKind::kHello && conn == 0) {
        EXPECT_TRUE(send_frame(fd, {FrameKind::kHelloAck, kHelloAckOk},
                               /*keep_waiting=*/true));
      } else if (f.kind == FrameKind::kHello) {
        EXPECT_TRUE(send_frame(fd, {FrameKind::kHelloAck, "fenced stale epoch 7"},
                               /*keep_waiting=*/true));
        return Answer::kHangUpLast;
      } else if (f.kind == FrameKind::kJournal && conn == 0) {
        return ++shipped == 3 ? Answer::kHangUp : Answer::kKeep;
      }
      return Answer::kKeep;
    });
  });
  EXPECT_EQ(run_worker(spec, scripted_worker(port, {0, 3})),
            kWorkerExitFenced);
  leader.join();
  ::close(listen_fd);
  ASSERT_EQ(conns.size(), 2u);
  EXPECT_EQ(journal_indices(conns[0]).size(), 3u);
  EXPECT_EQ(claim_of(conns[1]).epoch, claim_of(conns[0]).epoch);
}

// ---------------------------------------------------------------------------
// Explicit leader address (psync_sim --listen/--advertise): the leader binds
// the wildcard address and tells its workers to dial a separately
// advertised one — the two-host configuration, run on one machine.

SupervisorOptions advertised_opts(const std::string& base,
                                  std::size_t workers) {
  auto opts = fast_opts(base, workers);
  opts.listen_host = "0.0.0.0";
  opts.listen_port = 0;  // ephemeral
  opts.advertise_host = "127.0.0.1";
  return opts;
}

TEST(DistributedSocket, MatchesSerialRunByteForByte) {
  const auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("sock_happy");
  std::vector<std::string> dialed;
  const LaunchHook hook = [&](WorkerConfig& cfg) {
    dialed.push_back(cfg.connect_host);
  };
  const auto dist = run_distributed(spec, advertised_opts(base, 3), hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_EQ(dist.campaign.worker_restarts, 0u);
  EXPECT_EQ(dist.campaign.worker_fenced, 0u);
  EXPECT_TRUE(dist.campaign.worker_failures.empty());
  // Workers dial the advertised address, never the bind address.
  ASSERT_FALSE(dialed.empty());
  for (const auto& host : dialed) EXPECT_EQ(host, "127.0.0.1");
}

TEST(DistributedSocket, CrashedWorkerIsRestartedAndOutputIsIdentical) {
  const auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Session().run(spec);
  const std::string base = fresh_base("sock_crash");
  auto opts = advertised_opts(base, 3);
  opts.steal = false;  // the restart path specifically
  std::vector<std::string> dialed;
  const FaultTargets reset;
  const LaunchHook hook = [&](WorkerConfig& cfg) {
    dialed.push_back(cfg.connect_host);
    g_crash_at = cfg.shard == 1 && cfg.generation == 0
                     ? static_cast<std::int64_t>(cfg.range.begin + 1)
                     : -1;
  };
  const auto dist = run_distributed(spec, opts, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_GE(dist.campaign.worker_restarts, 1u);
  // The relaunched worker is pointed at the advertised address too.
  EXPECT_GT(dialed.size(), 3u);
  for (const auto& host : dialed) EXPECT_EQ(host, "127.0.0.1");
}

TEST(Distributed, WorkerEntryPointCompletesAShardInProcess) {
  // run_worker against a minimal leader in a test thread: it must dial,
  // claim its (shard, epoch), ship exactly its window's journal records
  // and exit cleanly once every record is acked.
  const auto spec = make_spec(uniform(5, 0.0));
  const auto points = SweepEngine::expand(spec);
  std::uint16_t port = 0;
  const int listen_fd = tcp_listen("127.0.0.1", 0, &port);
  std::vector<std::vector<Frame>> conns;
  std::thread leader([&] {
    conns = scripted_leader(listen_fd, [](std::size_t, const Frame& f, int fd) {
      if (f.kind == FrameKind::kHello) {
        EXPECT_TRUE(send_frame(fd, {FrameKind::kHelloAck, kHelloAckOk},
                               /*keep_waiting=*/true));
      } else if (f.kind == FrameKind::kJournal) {
        ack_journal(f, fd);
      }
      return Answer::kKeep;
    });
  });
  const WorkerConfig cfg = scripted_worker(port, {1, 4});
  EXPECT_EQ(run_worker(spec, cfg), kWorkerExitOk);
  leader.join();
  ::close(listen_fd);
  ASSERT_EQ(conns.size(), 1u);
  const HelloClaim claim = claim_of(conns[0]);
  EXPECT_EQ(claim.shard, 2u);
  EXPECT_EQ(claim.epoch, 7u);
  std::map<std::size_t, std::string> shipped;
  for (const Frame& f : conns[0]) {
    std::size_t index = 0;
    std::string line;
    if (f.kind == FrameKind::kJournal &&
        parse_journal_payload(f.payload, &index, &line)) {
      shipped.emplace(index, line);
    }
  }
  ASSERT_EQ(shipped.size(), 3u);
  for (const auto& [index, line] : shipped) {
    driver::JournalEntry entry;
    ASSERT_TRUE(driver::parse_journal_line(line, &entry)) << line;
    EXPECT_EQ(entry.rec.index, index);
    EXPECT_EQ(entry.seed, points[index].seed);
    EXPECT_TRUE(cfg.range.contains(index));
  }
}

TEST(Distributed, WorkerWithoutALeaderAddressRefusesToStart) {
  const auto spec = make_spec(uniform(2, 0.0));
  WorkerConfig cfg;
  cfg.range = {0, 2};
  EXPECT_EQ(run_worker(spec, cfg), kWorkerExitError);
}

}  // namespace
}  // namespace psync::dist
