// The campaign service: canonical spec identity (content digests), the
// Session submission/execution split, the per-point result cache, the
// wire-protocol codec (strict, typed errors), and the psync_serve daemon
// end to end over a real Unix-domain socket.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "psync/common/config.hpp"
#include "psync/common/journal.hpp"
#include "psync/common/rng.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/driver/sweep.hpp"
#include "psync/driver/workload.hpp"
#include "psync/serve/cache.hpp"
#include "psync/serve/protocol.hpp"
#include "psync/serve/server.hpp"
#include "frame_mutator.hpp"
#include "rng_draws.hpp"
#include "serve_client.hpp"

namespace psync::serve {
namespace {

using driver::CampaignEvent;
using driver::CampaignState;
using driver::ExperimentSpec;
using driver::PointStatus;
using driver::RunRecord;
using driver::Session;
using driver::SweepResult;

Session::Options cache_opts(driver::PointCache* cache) {
  Session::Options opts;
  opts.cache = cache;
  return opts;
}

/// A small but real fft2d sweep grid (4 points, verify on).
ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.workload = "fft2d";
  spec.machine.matrix_rows = 32;
  spec.machine.matrix_cols = 32;
  spec.axes.push_back({"processors", {8, 16}});
  spec.axes.push_back({"blocks", {2, 4}});
  spec.threads = 2;
  return spec;
}

/// The INI rendering of small_spec(), for daemon submissions.
constexpr const char* kSmallIni = R"([experiment]
kind = fft2d
threads = 2

[machine]
rows = 32
cols = 32

[sweep]
processors = 8 16
blocks = 2 4
)";

class CountingObserver final : public driver::PointObserver {
 public:
  void on_point_start(std::size_t) override { ++starts; }
  void on_point_done(std::size_t, PointStatus) override { ++dones; }
  std::atomic<std::size_t> starts{0};
  std::atomic<std::size_t> dones{0};
};

// ---------------------------------------------------------------------------
// Canonical form + content digests

TEST(Canonical, StableAcrossCalls) {
  const auto spec = small_spec();
  const std::string a = spec.canonical_json();
  const std::string b = spec.canonical_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(driver::spec_digest(spec), 0u);
  EXPECT_EQ(driver::spec_digest(spec), driver::fnv1a64(a));
  EXPECT_EQ(a.compare(0, 10, "{\"schema\":"), 0) << a.substr(0, 24);
}

TEST(Canonical, ExecutionPolicyFieldsDoNotChangeTheDigest) {
  auto spec = small_spec();
  const std::uint64_t base = driver::spec_digest(spec);
  spec.threads = 7;
  spec.journal_path = "/tmp/some.jsonl";
  spec.resume = true;
  spec.shard_begin = 1;
  spec.shard_end = 3;
  spec.guard.max_retries = 9;
  spec.guard.point_timeout_ms = 123.0;
  spec.quarantine_indices = {2};
  EXPECT_EQ(driver::spec_digest(spec), base)
      << "how a sweep runs must not change what it is";
}

TEST(Canonical, ResultDeterminingFieldsChangeTheDigest) {
  const auto base = driver::spec_digest(small_spec());

  auto seed = small_spec();
  seed.input_seed += 1;
  EXPECT_NE(driver::spec_digest(seed), base);

  auto machine = small_spec();
  machine.machine.matrix_rows = 64;
  EXPECT_NE(driver::spec_digest(machine), base);

  auto axis = small_spec();
  axis.axes[1].values.push_back(8);
  EXPECT_NE(driver::spec_digest(axis), base);

  auto workload = small_spec();
  workload.workload = "fft1d";
  EXPECT_NE(driver::spec_digest(workload), base);

  auto verify = small_spec();
  verify.verify = false;
  EXPECT_NE(driver::spec_digest(verify), base);
}

TEST(Canonical, ExpandFillsDistinctStablePointDigests) {
  const auto frozen = Session::freeze(small_spec());
  ASSERT_EQ(frozen.points.size(), 4u);
  for (const auto& pt : frozen.points) EXPECT_NE(pt.digest, 0u);
  for (std::size_t i = 0; i < frozen.points.size(); ++i) {
    for (std::size_t j = i + 1; j < frozen.points.size(); ++j) {
      EXPECT_NE(frozen.points[i].digest, frozen.points[j].digest);
    }
  }
  const auto again = Session::freeze(small_spec());
  for (std::size_t i = 0; i < frozen.points.size(); ++i) {
    EXPECT_EQ(frozen.points[i].digest, again.points[i].digest);
  }
  // A different input seed is a different point, even at the same knobs.
  auto reseeded_spec = small_spec();
  reseeded_spec.input_seed += 1;
  const auto reseeded = Session::freeze(reseeded_spec);
  EXPECT_NE(frozen.points[0].digest, reseeded.points[0].digest);
}

// ---------------------------------------------------------------------------
// Session: validate / freeze / submit

TEST(SessionValidate, CleanSpecHasNoDiagnostics) {
  EXPECT_TRUE(Session::validate(small_spec()).empty());
}

TEST(SessionValidate, ReportsTypedDiagnostics) {
  auto unknown = small_spec();
  unknown.workload = "no_such_workload";
  auto diags = Session::validate(unknown);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(std::string(diags[0].what()).find("no_such_workload"),
            std::string::npos);

  auto empty_axis = small_spec();
  empty_axis.axes.push_back({"rows", {}});
  diags = Session::validate(empty_axis);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(std::string(diags[0].what()).find("has no values"),
            std::string::npos);

  auto bad_knob = small_spec();
  bad_knob.axes.push_back({"warp_factor", {9}});
  diags = Session::validate(bad_knob);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(std::string(diags[0].what()).find("warp_factor"),
            std::string::npos);

  auto inverted = small_spec();  // grid size 4
  inverted.shard_begin = 3;
  inverted.shard_end = 1;
  diags = Session::validate(inverted);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(std::string(diags[0].what()).find("inverted"), std::string::npos);

  auto dangling_resume = small_spec();
  dangling_resume.resume = true;
  diags = Session::validate(dangling_resume);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(std::string(diags[0].what()).find("journal"), std::string::npos);

  auto bad_guard = small_spec();
  bad_guard.guard.point_timeout_ms = -1.0;
  bad_guard.guard.retry_backoff_ms = -1.0;
  EXPECT_EQ(Session::validate(bad_guard).size(), 2u);
}

TEST(SessionValidate, MeshNetworkRangesAreCheckedOnSpecAndKnobs) {
  const auto only_diag = [](const ExperimentSpec& spec) {
    const auto diags = Session::validate(spec);
    return diags.size() == 1u ? std::string(diags[0].what()) : std::string();
  };
  auto deep = small_spec();
  deep.mesh.net.buffer_depth = 256;
  EXPECT_NE(only_diag(deep).find("mesh.buffer_depth"), std::string::npos);
  EXPECT_THROW(Session::freeze(deep), ConfigError);

  auto wide = small_spec();
  wide.mesh.net.virtual_channels = 17;
  EXPECT_NE(only_diag(wide).find("mesh.virtual_channels"), std::string::npos);

  auto swept = small_spec();
  swept.axes.push_back({"virtual_channels", {1, 0}});
  EXPECT_NE(only_diag(swept).find("mesh.virtual_channels"),
            std::string::npos);
}

TEST(SessionValidate, FreezeThrowsTheFirstDiagnostic) {
  auto spec = small_spec();
  spec.axes.push_back({"warp_factor", {9}});
  EXPECT_THROW(Session::freeze(spec), ConfigError);
}

// The one-shot synchronous call every tool makes (a fresh Session's run)
// renders the same bytes as a long-lived session's submit/wait/take.
TEST(Session, RunMatchesRunnerByteForByte) {
  const auto spec = small_spec();
  const SweepResult one_shot = Session().run(spec);
  Session session;
  auto handle = session.submit(spec);
  const SweepResult via_handle = handle.take();
  EXPECT_EQ(driver::sweep_json(via_handle), driver::sweep_json(one_shot));
  EXPECT_EQ(driver::sweep_csv(via_handle), driver::sweep_csv(one_shot));
}

TEST(Session, SubmitStreamsEventsAndProgress) {
  Session session;
  auto handle = session.submit(small_spec());
  EXPECT_TRUE(handle.valid());
  handle.wait();
  EXPECT_EQ(handle.state(), CampaignState::kDone);

  const auto progress = handle.progress();
  EXPECT_EQ(progress.total, 4u);
  EXPECT_EQ(progress.completed, 4u);
  EXPECT_EQ(progress.executed, 4u);
  EXPECT_EQ(progress.cache_hits, 0u);
  EXPECT_EQ(progress.resumed, 0u);

  // Cursor 0 replays the full history for a late subscriber.
  std::vector<CampaignEvent> events;
  const std::size_t cursor = handle.events_since(0, 0.0, &events);
  EXPECT_EQ(cursor, 4u);
  ASSERT_EQ(events.size(), 4u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.source, CampaignEvent::Source::kRun);
    EXPECT_EQ(ev.status, PointStatus::kOk);
  }
  EXPECT_EQ(handle.result().records.size(), 4u);
}

/// Set to let serve_spin points finish instead of spinning.
std::atomic<bool> g_spin_released{false};

/// Spins again when the test ends, however it ends.
struct SpinReset {
  ~SpinReset() { g_spin_released = false; }
};

// Spins until cancelled whenever the t_p knob is nonzero, unless released
// (bounded so a broken token fails the test instead of wedging the suite).
// With t_p = 2 a cancelled point lingers until released, so its campaign
// is cancelled but still running for as long as a test needs.
class ServeSpinWorkload final : public driver::Workload {
 public:
  std::string name() const override { return "serve_spin"; }
  RunRecord run(const driver::RunPoint& pt, core::Scratch&) const override {
    double spin = 0.0;
    for (const auto& [knob, value] : pt.knobs) {
      if (knob == "t_p") spin = value;
    }
    if (spin != 0.0 && !g_spin_released) {
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start <
             std::chrono::seconds(10)) {
        if (pt.cancel == nullptr) continue;
        if (spin == 2.0 && !g_spin_released) continue;
        pt.cancel->poll();
      }
      throw SimulationError("serve_spin: cancel never fired");
    }
    RunRecord rec;
    rec.metrics.push_back({"ran", 1.0, 0});
    return rec;
  }
};

TEST(Session, CancelFinishesTheCampaignAsCancelled) {
  driver::register_workload(std::make_unique<ServeSpinWorkload>());
  ExperimentSpec spec;
  spec.workload = "serve_spin";
  spec.axes.push_back({"t_p", {1, 1}});
  spec.guard.point_timeout_ms = 5000.0;  // arms the per-point token

  Session session;
  auto handle = session.submit(spec);
  handle.cancel();
  handle.wait();
  EXPECT_EQ(handle.state(), CampaignState::kCancelled);
  EXPECT_THROW(handle.result(), CancelledError);
}

// ---------------------------------------------------------------------------
// Result cache: hit / miss / partial overlap

TEST(Cache, ResubmissionIsServedWithoutExecuting) {
  ResultCache cache;  // in-memory: open() not called
  CountingObserver first_run;
  auto spec = small_spec();
  spec.observer = &first_run;

  Session warm(cache_opts(&cache));
  const auto reference = warm.run(spec);
  EXPECT_EQ(first_run.starts.load(), 4u);
  EXPECT_EQ(cache.size(), 4u);

  // A fresh session over the same cache: zero points re-simulated, output
  // byte-identical. This is the acceptance criterion of the service.
  CountingObserver second_run;
  spec.observer = &second_run;
  Session cached(cache_opts(&cache));
  const auto served = cached.run(spec);
  EXPECT_EQ(second_run.starts.load(), 0u);
  EXPECT_EQ(second_run.dones.load(), 0u);
  EXPECT_EQ(served.campaign.cache_hits, 4u);
  EXPECT_EQ(driver::sweep_json(served), driver::sweep_json(reference));
  EXPECT_EQ(driver::sweep_csv(served), driver::sweep_csv(reference));
}

TEST(Cache, PartialOverlapExecutesOnlyTheNewPoints) {
  ResultCache cache;
  Session session(cache_opts(&cache));
  (void)session.run(small_spec());  // 4 points cached

  // Appending to the *slowest* axis keeps the base grid's points at their
  // original global indices (row-major expansion), so their index-derived
  // seeds — and therefore their content digests — still match the cache.
  auto superset = small_spec();
  superset.axes[0].values.push_back(32);  // 3x2 grid: 2 new points
  CountingObserver observer;
  superset.observer = &observer;
  const auto result = session.run(superset);
  EXPECT_EQ(observer.starts.load(), 2u);
  EXPECT_EQ(result.campaign.cache_hits, 4u);
  EXPECT_EQ(result.campaign.points, 6u);
  EXPECT_EQ(cache.size(), 6u);

  // The cache-hit records must sit at the *superset's* grid indices.
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].index, i);
  }
}

TEST(Cache, FailedPointsAreNeverCached) {
  ResultCache cache;
  ExperimentSpec spec;
  spec.workload = "fft2d";
  spec.machine.matrix_rows = 256;
  spec.machine.matrix_cols = 256;
  spec.axes.push_back({"blocks", {1, 2}});
  spec.guard.max_point_mb = 1;  // every point fails the admission gate

  Session session(cache_opts(&cache));
  const auto result = session.run(spec);
  EXPECT_EQ(result.campaign.failed, 2u);
  EXPECT_EQ(cache.size(), 0u);

  // And the resubmission re-executes rather than replaying the failure.
  CountingObserver observer;
  spec.observer = &observer;
  (void)session.run(spec);
  EXPECT_EQ(observer.starts.load(), 2u);
}

TEST(Cache, SeedMismatchReadsAsAMiss) {
  ResultCache cache;
  RunRecord rec;
  rec.workload = "fft2d";
  cache.store(1234, 99, rec);
  RunRecord out;
  EXPECT_TRUE(cache.lookup(1234, 99, &out));
  EXPECT_FALSE(cache.lookup(1234, 100, &out)) << "collision must miss";
  EXPECT_FALSE(cache.lookup(5678, 99, &out));
}

TEST(Cache, RebuildsTheIndexFromJournalsOnOpen) {
  const std::string dir = temp_path("rebuild_cache");
  ResultCache writer;
  writer.open(dir);

  auto spec = small_spec();
  spec.journal_path =
      dir + "/" + campaign_journal_name(driver::spec_digest(spec));
  std::remove(spec.journal_path.c_str());
  Session session(cache_opts(&writer));
  (void)session.run(spec);

  // A different process opening the same directory sees every point.
  ResultCache reader;
  reader.open(dir);
  EXPECT_EQ(reader.size(), 4u);
  const auto frozen = Session::freeze(small_spec());
  for (const auto& pt : frozen.points) {
    RunRecord out;
    EXPECT_TRUE(reader.lookup(pt.digest, pt.seed, &out));
  }
  std::remove(spec.journal_path.c_str());
}

/// Writes one campaign journal into `cache`'s directory: kOk records with
/// digests 11 and 22 around `between` (a line of its own), then `tail`
/// with no newline. Returns the journal's path.
std::string write_cache_journal(const ResultCache& cache,
                                const std::string& between,
                                const std::string& tail) {
  RunRecord rec;
  rec.workload = "fft2d";
  const std::string path = cache.dir() + "/" + campaign_journal_name(7);
  std::ofstream out(path, std::ios::trunc);
  out << driver::journal_line(rec, 1, 11) << '\n' << between << '\n'
      << driver::journal_line(rec, 2, 22) << '\n' << tail;
  return path;
}

TEST(Cache, MidFileGarbageIsACorruptJournalNamingTheFile) {
  const std::string dir = temp_path("garbage_cache");
  ResultCache cache;
  cache.open(dir);
  const std::string path = write_cache_journal(cache, "%% garbage %%", "");
  try {
    cache.open(dir);
    ADD_FAILURE() << "the garbage line was skipped";
  } catch (const JournalCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":2:"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Cache, TornTailAndPreDigestLinesAreSkippedOnOpen) {
  const std::string dir = temp_path("torn_cache");
  ResultCache cache;
  cache.open(dir);
  RunRecord rec;
  rec.workload = "fft2d";
  const std::string torn = driver::journal_line(rec, 3, 33);
  const std::string path = write_cache_journal(
      cache, driver::journal_line(rec, 4), torn.substr(0, torn.size() / 2));
  cache.open(dir);
  EXPECT_EQ(cache.size(), 2u);
  RunRecord out;
  EXPECT_TRUE(cache.lookup(11, 1, &out));
  EXPECT_TRUE(cache.lookup(22, 2, &out));
  EXPECT_FALSE(cache.lookup(33, 3, &out));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Protocol codec

TEST(Protocol, ParsesEveryOp) {
  Request req;
  EXPECT_EQ(parse_request("{\"op\":\"submit\",\"config\":\"[experiment]\","
                          "\"threads\":8}",
                          &req),
            FrameError::kNone);
  EXPECT_EQ(req.op, Op::kSubmit);
  EXPECT_EQ(req.config, "[experiment]");
  EXPECT_EQ(req.threads, 8u);

  EXPECT_EQ(parse_request(
                "{\"op\":\"status\",\"campaign\":\"00000000000000ff\"}", &req),
            FrameError::kNone);
  EXPECT_EQ(req.op, Op::kStatus);
  EXPECT_TRUE(req.has_campaign);
  EXPECT_EQ(req.campaign, 0xffu);

  EXPECT_EQ(parse_request("{\"op\":\"results\",\"campaign\":"
                          "\"00000000000000ff\",\"format\":\"csv\","
                          "\"wait\":false}",
                          &req),
            FrameError::kNone);
  EXPECT_EQ(req.op, Op::kResults);
  EXPECT_EQ(req.format, "csv");
  EXPECT_FALSE(req.wait);

  EXPECT_EQ(parse_request(
                "{\"op\":\"subscribe\",\"campaign\":\"00000000000000ff\"}",
                &req),
            FrameError::kNone);
  EXPECT_EQ(req.op, Op::kSubscribe);
  EXPECT_EQ(parse_request(
                "{\"op\":\"cancel\",\"campaign\":\"00000000000000ff\"}", &req),
            FrameError::kNone);
  EXPECT_EQ(req.op, Op::kCancel);
  EXPECT_EQ(parse_request("{\"op\":\"shutdown\"}", &req), FrameError::kNone);
  EXPECT_EQ(req.op, Op::kShutdown);
}

TEST(Protocol, EveryMalformedFrameGetsItsTypedError) {
  const struct {
    const char* line;
    FrameError want;
  } cases[] = {
      {"", FrameError::kEmpty},
      {"   \t ", FrameError::kEmpty},
      {"hello", FrameError::kNotJson},
      {"[1,2]", FrameError::kNotJson},
      {"{\"op\":\"status\"", FrameError::kNotJson},  // truncated
      {"{\"op", FrameError::kBadString},             // unterminated key
      {"{\"op\":\"shutdown\"}x", FrameError::kTrailingGarbage},
      {"{}", FrameError::kMissingOp},
      {"{\"config\":\"x\"}", FrameError::kMissingOp},
      {"{\"op\":\"reboot\"}", FrameError::kUnknownOp},
      {"{\"op\":\"status\",\"color\":\"red\"}", FrameError::kUnknownKey},
      {"{\"op\":true}", FrameError::kBadType},
      {"{\"op\":\"submit\",\"threads\":\"many\"}", FrameError::kBadType},
      {"{\"op\":\"submit\"}", FrameError::kMissingField},  // no config
      {"{\"op\":\"status\"}", FrameError::kMissingField},  // no campaign
      {"{\"op\":\"status\",\"campaign\":\"xyz\"}", FrameError::kBadCampaignId},
      {"{\"op\":\"status\",\"campaign\":\"00000000000000FF\"}",
       FrameError::kBadCampaignId},  // uppercase rejected
      {"{\"op\":\"results\",\"campaign\":\"00000000000000ff\","
       "\"format\":\"xml\"}",
       FrameError::kBadValue},
  };
  for (const auto& c : cases) {
    Request req;
    EXPECT_EQ(parse_request(c.line, &req), c.want) << c.line;
  }
}

TEST(Protocol, TruncationFuzzNeverAcceptsAPrefix) {
  // Every proper prefix of a valid frame must be rejected with *some*
  // typed error — a cut-off submission must never parse as a smaller one.
  const std::string frame =
      "{\"op\":\"results\",\"campaign\":\"00000000000000ff\","
      "\"format\":\"csv\",\"wait\":true,\"threads\":3}";
  Request req;
  ASSERT_EQ(parse_request(frame, &req), FrameError::kNone);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_NE(parse_request(frame.substr(0, len), &req), FrameError::kNone)
        << "prefix of length " << len << " parsed";
  }
  // Same for byte-level corruption of the structural characters.
  for (const std::size_t at : {0u, 4u, 5u, 15u, 16u}) {
    std::string corrupt = frame;
    corrupt[at] = '#';
    EXPECT_NE(parse_request(corrupt, &req), FrameError::kNone) << corrupt;
  }
}

// Seeded mutation fuzz over every valid request line this file sends.
// Whatever the bytes, parse_request ends in kNone or a typed FrameError:
// never a throw, a signal or a PSYNC_CHECK abort.

struct ValidLine {
  std::string line;
  Request want;
};

Request request(Op op, const std::string& config = "",
                std::uint64_t threads = 0) {
  Request r;
  r.op = op;
  r.config = config;
  r.threads = threads;
  return r;
}

Request campaign_request(Op op, std::uint64_t campaign,
                         const std::string& format = "json", bool wait = true,
                         std::uint64_t threads = 0) {
  Request r = request(op, "", threads);
  r.campaign = campaign;
  r.has_campaign = true;
  r.format = format;
  r.wait = wait;
  return r;
}

std::vector<ValidLine> valid_lines() {
  return {
      {R"({"op":"submit","config":"[experiment]","threads":8})",
       request(Op::kSubmit, "[experiment]", 8)},
      {R"({"op":"status","campaign":"00000000000000ff"})",
       campaign_request(Op::kStatus, 0xff)},
      {R"({"op":"results","campaign":"00000000000000ff","format":"csv",)"
       R"("wait":false})",
       campaign_request(Op::kResults, 0xff, "csv", false)},
      {R"({"op":"results","campaign":"00000000000000ff","format":"csv",)"
       R"("wait":true,"threads":3})",
       campaign_request(Op::kResults, 0xff, "csv", true, 3)},
      {R"({"op":"results","campaign":"00000000000000ff"})",
       campaign_request(Op::kResults, 0xff)},
      {R"({"op":"subscribe","campaign":"00000000000000ff"})",
       campaign_request(Op::kSubscribe, 0xff)},
      {R"({"op":"cancel","campaign":"00000000000000ff"})",
       campaign_request(Op::kCancel, 0xff)},
      {R"({"op":"status","campaign":"0000000000000000"})",
       campaign_request(Op::kStatus, 0)},
      {R"({"op":"shutdown"})", request(Op::kShutdown)},
      {R"({"op":"submit","config":"kind = ???"})",
       request(Op::kSubmit, "kind = ???")},
      {submit_frame(kSmallIni), request(Op::kSubmit, kSmallIni)},
  };
}

void expect_same_request(const Request& got, const Request& want,
                         const std::string& line) {
  EXPECT_EQ(got.op, want.op) << line;
  EXPECT_EQ(got.config, want.config) << line;
  EXPECT_EQ(got.campaign, want.campaign) << line;
  EXPECT_EQ(got.has_campaign, want.has_campaign) << line;
  EXPECT_EQ(got.format, want.format) << line;
  EXPECT_EQ(got.wait, want.wait) << line;
  EXPECT_EQ(got.threads, want.threads) << line;
}

/// Parse `line` and check the outcome is typed; an accepted frame must
/// still satisfy its op's required fields.
void expect_typed_outcome(const std::string& line) {
  const std::string shown = json_string(line);  // NULs and controls escaped
  Request req;
  FrameError err = FrameError::kNone;
  EXPECT_NO_THROW(err = parse_request(line, &req)) << shown;
  EXPECT_STRNE(to_string(err), "?") << shown;
  if (err != FrameError::kNone) return;
  switch (req.op) {
    case Op::kSubmit:
      EXPECT_FALSE(req.config.empty()) << shown;
      break;
    case Op::kResults:
      EXPECT_TRUE(req.format == "json" || req.format == "csv") << shown;
      [[fallthrough]];
    case Op::kStatus:
    case Op::kSubscribe:
    case Op::kCancel:
      EXPECT_TRUE(req.has_campaign) << shown;
      break;
    case Op::kShutdown:
      break;
  }
}

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, EveryMutantEndsInATypedOutcome) {
  Rng rng(GetParam());
  for (const ValidLine& v : valid_lines()) {
    // The unmutated line still parses to the same request.
    Request req;
    ASSERT_EQ(parse_request(v.line, &req), FrameError::kNone) << v.line;
    expect_same_request(req, v.want, v.line);

    // Truncation at every length: typed, and never accepted.
    for (std::size_t len = 0; len < v.line.size(); ++len) {
      const std::string prefix = v.line.substr(0, len);
      expect_typed_outcome(prefix);
      EXPECT_NE(parse_request(prefix, &req), FrameError::kNone) << prefix;
    }

    // Each field dropped in turn (no valid line has a comma in a string).
    std::vector<std::string> fields;
    std::stringstream body(v.line.substr(1, v.line.size() - 2));
    for (std::string f; std::getline(body, f, ',');) fields.push_back(f);
    for (std::size_t drop = 0; drop < fields.size(); ++drop) {
      std::string frame = "{";
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i == drop) continue;
        frame += (frame.size() > 1 ? "," : "") + fields[i];
      }
      expect_typed_outcome(frame + "}");
    }

    // Structured extremes spliced in as a value and as the whole frame.
    const std::string open = v.line.substr(0, v.line.size() - 1);
    for (const char* huge : kHugeNumbers) {
      expect_typed_outcome(open + ",\"threads\":" + huge + "}");
      expect_typed_outcome(open + ",\"threads\":-" + huge + "}");
    }
    expect_typed_outcome(open + ",\"config\":" + nested('{', '}', 64) + "}");
    expect_typed_outcome(open + ",\"op\":" + nested('[', ']', 64) + "}");
    expect_typed_outcome(std::string(64, '{') + v.line +
                         std::string(64, '}'));

    for (int i = 0; i < 200; ++i) expect_typed_outcome(mutate(rng, v.line));
  }
}

/// A dist control payload's outcome: each parser either rejects `s` or
/// reads a value that renders back to exactly `s` — no sign, space,
/// leading zero or overflow slips through as some other number — and a
/// shipped journal line ends in a record this sweep admits, a
/// JournalConflictError, or a parse failure.
void expect_dist_payload_outcome(const std::string& s,
                                 const std::vector<driver::RunPoint>& grid) {
  const std::string shown = json_string(s);
  dist::HelloClaim claim;
  if (dist::parse_hello_payload(s, &claim)) {
    EXPECT_EQ(dist::hello_payload(claim), s) << shown;
  }
  dist::Heartbeat hb;
  if (dist::parse_heartbeat_line(s, &hb)) {
    EXPECT_EQ(dist::heartbeat_line(hb), s) << shown;
  }
  std::size_t index = 0;
  if (dist::parse_journal_ack_payload(s, &index)) {
    EXPECT_EQ(dist::journal_ack_payload(index), s) << shown;
  }
  std::string line;
  if (!dist::parse_journal_payload(s, &index, &line)) return;
  EXPECT_EQ(dist::journal_payload(index, line), s) << shown;
  driver::JournalEntry entry;
  if (!driver::parse_journal_line(line, &entry)) return;
  try {
    driver::admit_journal_entry(entry, grid, "fuzz_wl", "fuzz");
    EXPECT_LT(entry.rec.index, grid.size()) << shown;
  } catch (const JournalConflictError&) {
  }
}

// The leader's side of the wire through the same seeded mutator: HELLO
// claims, heartbeat lines, journal frames and their acks.
TEST_P(ProtocolFuzz, EveryDistPayloadMutantEndsInATypedOutcome) {
  Rng rng(GetParam());
  std::vector<driver::RunPoint> grid(4);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].index = i;
    grid[i].seed = 100 + i;
    grid[i].digest = 1000 + i;
  }
  driver::RunRecord rec;
  rec.index = 2;
  rec.workload = "fuzz_wl";
  rec.metrics.push_back({"val", 0.25, 4});
  dist::Heartbeat busy;
  busy.shard = 1;
  busy.kind = dist::Heartbeat::Kind::kPointStart;
  busy.points_done = 7;
  busy.inflight = 9;
  const std::vector<std::string> valid = {
      dist::hello_payload({3, 18446744073709551615ULL}),
      dist::heartbeat_line(busy),
      dist::heartbeat_line(dist::Heartbeat{}),
      dist::journal_payload(2, driver::journal_line(rec, 102, 1002)),
      dist::journal_ack_payload(12),
  };
  for (const std::string& v : valid) {
    expect_dist_payload_outcome(v, grid);
    for (std::size_t len = 0; len < v.size(); ++len) {
      expect_dist_payload_outcome(v.substr(0, len), grid);
    }
    for (int i = 0; i < 200; ++i) {
      expect_dist_payload_outcome(mutate(rng, v), grid);
    }
  }
  dist::HelloClaim claim;
  EXPECT_FALSE(dist::parse_hello_payload("shard -1 epoch 5", &claim));
  EXPECT_FALSE(
      dist::parse_hello_payload("shard 18446744073709551616 epoch 5", &claim));
  EXPECT_FALSE(dist::parse_hello_payload(
      std::string("shard 1 epoch 5\0junk", 20), &claim));
  dist::Heartbeat hb;
  EXPECT_FALSE(dist::parse_heartbeat_line("hb 1 p +0 -", &hb));
  EXPECT_FALSE(dist::parse_heartbeat_line("hb 1 p 0 9223372036854775808", &hb));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Protocol, CampaignIdRoundTrips) {
  for (const std::uint64_t digest :
       {std::uint64_t{0}, std::uint64_t{0xff}, std::uint64_t{1} << 63,
        std::uint64_t{0xdeadbeefcafef00d}}) {
    const std::string id = campaign_id(digest);
    EXPECT_EQ(id.size(), 16u);
    std::uint64_t back = 0;
    EXPECT_TRUE(parse_campaign_id(id, &back)) << id;
    EXPECT_EQ(back, digest);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(parse_campaign_id("abc", &out));
  EXPECT_FALSE(parse_campaign_id("00000000000000fg", &out));
  EXPECT_FALSE(parse_campaign_id("00000000000000ff0", &out));
}

TEST(Protocol, FindFieldsAreDepthAware) {
  const std::string json =
      "{\"ok\":true,\"campaign\":\"00ff\",\"points\":12,"
      "\"nested\":{\"points\":99,\"deep\":[{\"ok\":false}]},"
      "\"body\":\"line1\\nline2\"}";
  bool ok = false;
  EXPECT_TRUE(find_bool_field(json, "ok", &ok));
  EXPECT_TRUE(ok);
  std::uint64_t points = 0;
  EXPECT_TRUE(find_u64_field(json, "points", &points));
  EXPECT_EQ(points, 12u) << "nested points must not shadow the top level";
  std::string body;
  EXPECT_TRUE(find_string_field(json, "body", &body));
  EXPECT_EQ(body, "line1\nline2");
  EXPECT_FALSE(find_string_field(json, "deep", &body));  // nested only
  EXPECT_FALSE(find_u64_field(json, "missing", &points));
}

TEST(Protocol, ErrorFrameShape) {
  const std::string frame = error_frame("bad_thing", "it \"broke\"");
  bool ok = true;
  ASSERT_TRUE(find_bool_field(frame, "ok", &ok));
  EXPECT_FALSE(ok);
  std::string code;
  std::string message;
  ASSERT_TRUE(find_string_field(frame, "error", &code));
  ASSERT_TRUE(find_string_field(frame, "message", &message));
  EXPECT_EQ(code, "bad_thing");
  EXPECT_EQ(message, "it \"broke\"");
}

// ---------------------------------------------------------------------------
// The daemon, end to end over a real socket

TEST(Daemon, SubmitThenResultsMatchesTheRunnerByteForByte) {
  DaemonFixture daemon("roundtrip");
  Client client(daemon.socket_path);
  ASSERT_TRUE(client.connected());

  const std::string response = client.round_trip(submit_frame(kSmallIni));
  bool ok = false;
  ASSERT_TRUE(find_bool_field(response, "ok", &ok)) << response;
  ASSERT_TRUE(ok) << response;
  std::string id;
  ASSERT_TRUE(find_string_field(response, "campaign", &id));
  std::uint64_t points = 0;
  EXPECT_TRUE(find_u64_field(response, "points", &points));
  EXPECT_EQ(points, 4u);

  const std::string results = client.round_trip(
      "{\"op\":\"results\",\"campaign\":" + json_string(id) + "}");
  ASSERT_TRUE(find_bool_field(results, "ok", &ok) && ok) << results;
  std::string body;
  ASSERT_TRUE(find_string_field(results, "body", &body));
  EXPECT_EQ(body, driver::sweep_json(Session().run(small_spec())));

  // CSV render of the same campaign, through the memoized entry.
  const std::string csv = client.round_trip(
      "{\"op\":\"results\",\"campaign\":" + json_string(id) +
      ",\"format\":\"csv\"}");
  ASSERT_TRUE(find_string_field(csv, "body", &body));
  EXPECT_EQ(body, driver::sweep_csv(Session().run(small_spec())));
}

TEST(Daemon, DuplicateSubmissionAttachesToTheSameCampaign) {
  DaemonFixture daemon("attach");
  Client a(daemon.socket_path);
  Client b(daemon.socket_path);
  ASSERT_TRUE(a.connected() && b.connected());

  const std::string first = a.round_trip(submit_frame(kSmallIni));
  const std::string second = b.round_trip(submit_frame(kSmallIni));
  std::string id_a;
  std::string id_b;
  ASSERT_TRUE(find_string_field(first, "campaign", &id_a));
  ASSERT_TRUE(find_string_field(second, "campaign", &id_b));
  EXPECT_EQ(id_a, id_b) << "content digest is the campaign identity";
  bool attached = false;
  ASSERT_TRUE(find_bool_field(second, "attached", &attached));
  EXPECT_TRUE(attached);

  // Both clients can fetch identical bodies.
  const std::string frame =
      "{\"op\":\"results\",\"campaign\":" + json_string(id_a) + "}";
  std::string body_a;
  std::string body_b;
  ASSERT_TRUE(find_string_field(a.round_trip(frame), "body", &body_a));
  ASSERT_TRUE(find_string_field(b.round_trip(frame), "body", &body_b));
  EXPECT_EQ(body_a, body_b);
}

TEST(Daemon, RestartServesTheResubmissionFromDisk) {
  std::string cache_dir;
  std::string socket_path;
  {
    DaemonFixture daemon("restart");
    cache_dir = daemon.cache_dir;
    socket_path = daemon.socket_path;
    Client client(daemon.socket_path);
    ASSERT_TRUE(client.connected());
    const std::string response = client.round_trip(submit_frame(kSmallIni));
    std::string id;
    ASSERT_TRUE(find_string_field(response, "campaign", &id));
    // Wait for completion so the journal is fully written.
    (void)client.round_trip("{\"op\":\"results\",\"campaign\":" +
                            json_string(id) + "}");
  }  // daemon stopped, process state gone; only the cache dir survives

  ServerOptions opts;
  opts.socket_path = socket_path;
  opts.cache_dir = cache_dir;
  Server revived(opts);
  revived.start();
  EXPECT_EQ(revived.cache().size(), 4u) << "index rebuilt from journals";

  Client client(socket_path);
  ASSERT_TRUE(client.connected());
  const std::string response = client.round_trip(submit_frame(kSmallIni));
  std::string id;
  ASSERT_TRUE(find_string_field(response, "campaign", &id));
  const std::string results = client.round_trip(
      "{\"op\":\"results\",\"campaign\":" + json_string(id) + "}");
  std::uint64_t executed = 99;
  std::uint64_t completed = 0;
  ASSERT_TRUE(find_u64_field(results, "executed", &executed)) << results;
  ASSERT_TRUE(find_u64_field(results, "completed", &completed));
  EXPECT_EQ(executed, 0u) << "a resubmitted spec must not re-simulate";
  EXPECT_EQ(completed, 4u);
  std::string body;
  ASSERT_TRUE(find_string_field(results, "body", &body));
  EXPECT_EQ(body, driver::sweep_json(Session().run(small_spec())));
  revived.stop();
}

TEST(Daemon, SubscribeStreamsEveryPointThenDone) {
  DaemonFixture daemon("subscribe", /*with_cache=*/false);
  Client client(daemon.socket_path);
  ASSERT_TRUE(client.connected());

  const std::string response = client.round_trip(submit_frame(kSmallIni));
  std::string id;
  ASSERT_TRUE(find_string_field(response, "campaign", &id));

  ASSERT_TRUE(client.send_line(
      "{\"op\":\"subscribe\",\"campaign\":" + json_string(id) + "}"));
  std::size_t point_frames = 0;
  for (;;) {
    std::string frame;
    ASSERT_TRUE(client.read_line(&frame)) << "stream ended early";
    std::string event;
    ASSERT_TRUE(find_string_field(frame, "event", &event)) << frame;
    if (event == "done") {
      std::string state;
      EXPECT_TRUE(find_string_field(frame, "state", &state));
      EXPECT_EQ(state, "done");
      break;
    }
    EXPECT_EQ(event, "point");
    ++point_frames;
  }
  EXPECT_EQ(point_frames, 4u);
}

TEST(Daemon, MalformedFramesGetTypedErrorsAndTheConnectionSurvives) {
  DaemonFixture daemon("malformed", /*with_cache=*/false);
  Client client(daemon.socket_path);
  ASSERT_TRUE(client.connected());

  std::string code;
  ASSERT_TRUE(
      find_string_field(client.round_trip("this is not json"), "error", &code));
  EXPECT_EQ(code, "not_json");
  ASSERT_TRUE(
      find_string_field(client.round_trip("{\"op\":\"reboot\"}"), "error",
                        &code));
  EXPECT_EQ(code, "unknown_op");
  ASSERT_TRUE(find_string_field(
      client.round_trip("{\"op\":\"submit\",\"config\":\"kind = ???\"}"),
      "error", &code));
  EXPECT_EQ(code, "invalid_spec");
  ASSERT_TRUE(find_string_field(
      client.round_trip(
          "{\"op\":\"status\",\"campaign\":\"0000000000000000\"}"),
      "error", &code));
  EXPECT_EQ(code, "unknown_campaign");

  // After all that abuse the same connection still serves a campaign.
  bool ok = false;
  ASSERT_TRUE(find_bool_field(client.round_trip(submit_frame(kSmallIni)), "ok",
                              &ok));
  EXPECT_TRUE(ok);
}

// Regression: a submission whose mesh.elements_per_packet is 0 used to
// reach a `% elements_per_packet` in the mesh machine and kill the daemon
// (SIGFPE) with every campaign it was running.
TEST(Daemon, ZeroElementsPerPacketIsAnInvalidSpecAndTheDaemonKeepsServing) {
  DaemonFixture daemon("zero_epp", /*with_cache=*/false);
  Client client(daemon.socket_path);
  ASSERT_TRUE(client.connected());

  const std::string bad = client.round_trip(submit_frame(
      "[experiment]\nkind = transpose\nelements = 256\n"
      "[machine]\nrows = 64\ncols = 256\n"
      "[mesh]\ngrid = 8\nt_p = 4\nelements_per_packet = 0\n"));
  std::string code;
  std::string message;
  ASSERT_TRUE(find_string_field(bad, "error", &code)) << bad;
  EXPECT_EQ(code, "invalid_spec");
  ASSERT_TRUE(find_string_field(bad, "message", &message)) << bad;
  EXPECT_NE(message.find("mesh.elements_per_packet"), std::string::npos)
      << message;

  // The same daemon still runs a valid campaign to completion.
  const std::string good = client.round_trip(submit_frame(kSmallIni));
  std::string id;
  ASSERT_TRUE(find_string_field(good, "campaign", &id)) << good;
  const std::string results = await_results(client, id);
  std::string body;
  ASSERT_TRUE(find_string_field(results, "body", &body)) << results;
  EXPECT_EQ(body, driver::sweep_json(Session().run(small_spec())));
}

TEST(Daemon, CancelOpStopsARunningCampaign) {
  driver::register_workload(std::make_unique<ServeSpinWorkload>());
  DaemonFixture daemon("cancel", /*with_cache=*/false);
  Client client(daemon.socket_path);
  ASSERT_TRUE(client.connected());

  const char* spin_ini =
      "[experiment]\nkind = serve_spin\nthreads = 1\n"
      "[guard]\npoint_timeout_ms = 5000\n"
      "[sweep]\nt_p = 1 1\n";
  const std::string response = client.round_trip(submit_frame(spin_ini));
  std::string id;
  ASSERT_TRUE(find_string_field(response, "campaign", &id)) << response;

  bool ok = false;
  ASSERT_TRUE(find_bool_field(
      client.round_trip("{\"op\":\"cancel\",\"campaign\":" + json_string(id) +
                        "}"),
      "ok", &ok));
  EXPECT_TRUE(ok);

  // A waiting `results` returns once the campaign has wound down, and on
  // a cancelled campaign it is a typed error, not a hang.
  std::string code;
  ASSERT_TRUE(find_string_field(
      client.round_trip("{\"op\":\"results\",\"campaign\":" +
                        json_string(id) + "}"),
      "error", &code));
  EXPECT_EQ(code, "campaign_failed");
  std::string state;
  ASSERT_TRUE(find_string_field(
      client.round_trip("{\"op\":\"status\",\"campaign\":" +
                        json_string(id) + "}"),
      "state", &state));
  EXPECT_EQ(state, "cancelled");
}

// A cancelled campaign is not attached to. The resubmission goes out
// while the cancelled campaign is still running (its point lingers until
// released), so the submit reply waits for it to end; then the spec runs
// again, and its results are the runner's bytes.
TEST(Daemon, ResubmittingACancelledCampaignRunsItAgain) {
  driver::register_workload(std::make_unique<ServeSpinWorkload>());
  const SpinReset reset;
  DaemonFixture daemon("rerun_cancelled");
  Client client(daemon.socket_path);
  Client other(daemon.socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(other.connected());
  const char* ini =
      "[experiment]\nkind = serve_spin\nthreads = 1\n"
      "[guard]\npoint_timeout_ms = 5000\n"
      "[sweep]\nt_p = 2 2\n";
  const std::string first = client.round_trip(submit_frame(ini));
  std::string id;
  ASSERT_TRUE(find_string_field(first, "campaign", &id)) << first;
  const std::string status =
      "{\"op\":\"status\",\"campaign\":" + json_string(id) + "}";
  (void)client.round_trip("{\"op\":\"cancel\",\"campaign\":" +
                          json_string(id) + "}");
  ASSERT_TRUE(client.send_line(submit_frame(ini)));
  // The reactor serves connections in the order they were opened, so once
  // `other` has its answer the resubmit has been read, and it found the
  // cancelled campaign still running.
  std::string state;
  ASSERT_TRUE(find_string_field(other.round_trip(status), "state", &state));
  EXPECT_EQ(state, "running");

  g_spin_released = true;
  std::string second;
  ASSERT_TRUE(client.read_line(&second));
  bool attached = true;
  ASSERT_TRUE(find_bool_field(second, "attached", &attached)) << second;
  EXPECT_FALSE(attached);
  const std::string results = client.round_trip(
      "{\"op\":\"results\",\"campaign\":" + json_string(id) + "}");
  std::string body;
  ASSERT_TRUE(find_string_field(results, "body", &body)) << results;
  EXPECT_EQ(body, driver::sweep_json(Session().run(
                      driver::spec_from_config(IniConfig::parse(ini)))));
}

/// Threads of this process, from /proc/self/task.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// One reactor thread serves every connection: open connections add no
// thread, and connections that come and go leave none behind.
TEST(Daemon, ConnectionsAddNoThreads) {
  DaemonFixture daemon("threads", /*with_cache=*/false);
  const std::string status =
      "{\"op\":\"status\",\"campaign\":\"00000000000000ff\"}";
  const std::size_t idle = thread_count();
  {
    std::vector<std::unique_ptr<Client>> open;
    for (int i = 0; i < 16; ++i) {
      open.push_back(std::make_unique<Client>(daemon.socket_path));
      ASSERT_TRUE(open.back()->connected());
      EXPECT_NE(open.back()->round_trip(status).find("unknown_campaign"),
                std::string::npos);
    }
    EXPECT_EQ(thread_count(), idle);
  }
  for (int i = 0; i < 200; ++i) {
    Client client(daemon.socket_path);
    ASSERT_TRUE(client.connected());
    (void)client.round_trip(status);
  }
  EXPECT_EQ(thread_count(), idle);
}

// stop() with a client parked on a `results` wait of a campaign that
// would spin for 10 s: the campaign is cancelled first, so the wait ends
// and stop() returns promptly.
TEST(Daemon, StopReturnsPromptlyWhileAResultsWaitIsParked) {
  driver::register_workload(std::make_unique<ServeSpinWorkload>());
  DaemonFixture daemon("stop_parked", /*with_cache=*/false);
  Client client(daemon.socket_path);
  ASSERT_TRUE(client.connected());
  const std::string response = client.round_trip(submit_frame(
      "[experiment]\nkind = serve_spin\nthreads = 1\n"
      "[guard]\npoint_timeout_ms = 20000\n"
      "[sweep]\nt_p = 1\n"));
  std::string id;
  ASSERT_TRUE(find_string_field(response, "campaign", &id)) << response;
  ASSERT_TRUE(client.send_line("{\"op\":\"results\",\"campaign\":" +
                               json_string(id) + "}"));
  // A round trip on a second connection while the wait is parked.
  Client other(daemon.socket_path);
  ASSERT_TRUE(other.connected());
  (void)other.round_trip("{\"op\":\"status\",\"campaign\":" +
                         json_string(id) + "}");
  const auto t0 = std::chrono::steady_clock::now();
  daemon.server->stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, std::chrono::seconds(1));
}

TEST(Daemon, ShutdownOpWakesWaiters) {
  DaemonFixture daemon("shutdown", /*with_cache=*/false);
  std::thread waiter([&] { daemon.server->wait_for_shutdown(); });
  Client client(daemon.socket_path);
  ASSERT_TRUE(client.connected());
  bool shutdown = false;
  ASSERT_TRUE(find_bool_field(client.round_trip("{\"op\":\"shutdown\"}"),
                              "shutdown", &shutdown));
  EXPECT_TRUE(shutdown);
  waiter.join();  // wait_for_shutdown must return without stop()
  daemon.server->stop();
}

}  // namespace
}  // namespace psync::serve
