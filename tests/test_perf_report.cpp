// perf subsystem: benchmark report JSON round-trip and the regression
// comparison bench_driver's --baseline mode gates CI on.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "psync/common/check.hpp"
#include "psync/perf/bench_report.hpp"
#include "psync/perf/stopwatch.hpp"

namespace psync::perf {
namespace {

BenchReport sample_report() {
  BenchReport r;
  r.quick = true;
  r.entries.push_back(
      {"mesh_drain", 120.0, 1.1, 100, 2'000'000, "idle-skip \"drain\""});
  r.entries.push_back({"fft_kernel", 50.0, 0.0, 10, 0, ""});
  r.entries.front().minor_faults = 12.5;
  return r;
}

TEST(BenchReport, JsonRoundTripPreservesEntries) {
  const BenchReport r = sample_report();
  const std::string json = bench_report_json(r);
  const BenchReport back = parse_bench_report(json);

  EXPECT_EQ(back.schema_version, r.schema_version);
  EXPECT_EQ(back.quick, r.quick);
  ASSERT_EQ(back.entries.size(), r.entries.size());
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].name, r.entries[i].name);
    EXPECT_NEAR(back.entries[i].wall_ms, r.entries[i].wall_ms, 1e-6);
    EXPECT_NEAR(back.entries[i].min_iter_ms, r.entries[i].min_iter_ms, 1e-6);
    EXPECT_EQ(back.entries[i].iters, r.entries[i].iters);
    EXPECT_EQ(back.entries[i].events, r.entries[i].events);
    EXPECT_EQ(back.entries[i].minor_faults, r.entries[i].minor_faults);
    EXPECT_EQ(back.entries[i].note, r.entries[i].note);  // escaped quotes
  }
  // Re-serializing the parsed report reproduces the exact bytes.
  EXPECT_EQ(bench_report_json(back), json);
}

TEST(BenchReport, ParserSkipsUnknownKeysAndDerivedFields) {
  const std::string json = R"({
    "schema_version": 1, "quick": false, "future_field": [1, {"a": "b"}],
    "benchmarks": [
      {"name": "x", "wall_ms": 10.0, "iters": 2, "per_iter_ms": 5.0,
       "events": 4, "events_per_sec": 400.0, "extra": true}
    ]
  })";
  const BenchReport r = parse_bench_report(json);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].name, "x");
  EXPECT_EQ(r.entries[0].iters, 2u);
  EXPECT_NEAR(r.entries[0].per_iter_ms(), 5.0, 1e-9);
}

TEST(BenchReport, MalformedInputThrows) {
  EXPECT_THROW(parse_bench_report("not json"), SimulationError);
  EXPECT_THROW(parse_bench_report("{\"benchmarks\": [{}]}"), SimulationError);
  EXPECT_THROW(parse_bench_report("{\"quick\": maybe}"), SimulationError);
}

TEST(BenchReport, ControlCharactersRoundTripAsStandardEscapes) {
  BenchReport r;
  r.entries.push_back({"ctl", 1.0, 0.0, 1, 0, "tab\there\rcr\x01soh"});
  const std::string json = bench_report_json(r);
  for (const char ch : json) {
    EXPECT_TRUE(ch == '\n' || static_cast<unsigned char>(ch) >= 0x20)
        << "raw control byte " << static_cast<int>(ch) << " in " << json;
  }
  EXPECT_EQ(parse_bench_report(json).entries.at(0).note, r.entries[0].note);

  const BenchReport escaped = parse_bench_report(
      R"({"benchmarks": [{"name": "x", "note": "a\tb\u0041"}]})");
  EXPECT_EQ(escaped.entries.at(0).note, "a\tbA");

  // The committed baseline holds no escape, and per_iter_ms and
  // events_per_sec are derived from wall_ms as written, so the whole file
  // re-renders byte for byte.
  std::ifstream in(std::string(PSYNC_SOURCE_ROOT) + "/BENCH_psync.json");
  std::stringstream committed;
  committed << in.rdbuf();
  ASSERT_FALSE(committed.str().empty());
  EXPECT_EQ(bench_report_json(parse_bench_report(committed.str())),
            committed.str());
}

TEST(BenchCompare, FlagsOnlyRealRegressions) {
  BenchReport base;
  base.entries.push_back({"stable", 100.0, 10.0, 10, 0, ""});
  base.entries.push_back({"regressed", 100.0, 10.0, 10, 0, ""});
  base.entries.push_back({"improved", 100.0, 10.0, 10, 0, ""});
  base.entries.push_back({"tiny_noise", 0.02, 0.002, 10, 0, ""});
  base.entries.push_back({"removed", 100.0, 10.0, 10, 0, ""});

  BenchReport cur;
  cur.entries.push_back({"stable", 105.0, 10.5, 10, 0, ""});       // +5%
  cur.entries.push_back({"regressed", 200.0, 20.0, 10, 0, ""});    // +100%
  cur.entries.push_back({"improved", 50.0, 5.0, 10, 0, ""});       // -50%
  cur.entries.push_back({"tiny_noise", 0.06, 0.006, 10, 0, ""});   // +200%,
                                                                   // but <50us
  cur.entries.push_back({"added", 1.0, 0.1, 10, 0, ""});

  const auto cmp = compare_bench_reports(base, cur, 25.0);
  EXPECT_FALSE(cmp.ok);
  ASSERT_EQ(cmp.rows.size(), 4u);
  for (const auto& row : cmp.rows) {
    EXPECT_EQ(row.regressed, row.name == "regressed") << row.name;
  }
  ASSERT_EQ(cmp.missing.size(), 1u);
  EXPECT_EQ(cmp.missing[0], "removed");
  EXPECT_FALSE(cmp.table().empty());

  // Within tolerance on every present benchmark -> ok.
  const auto ok_cmp = compare_bench_reports(base, base, 25.0);
  EXPECT_TRUE(ok_cmp.ok);
}

TEST(BenchCompare, UsesMinIterationWhenTracked) {
  // Mean-per-iter doubled but min is stable: scheduler noise, not a
  // regression.
  BenchReport base;
  base.entries.push_back({"bench", 100.0, 10.0, 10, 0, ""});
  BenchReport cur;
  cur.entries.push_back({"bench", 200.0, 10.1, 10, 0, ""});
  const auto cmp = compare_bench_reports(base, cur, 25.0);
  EXPECT_TRUE(cmp.ok);
  EXPECT_NEAR(cmp.rows[0].current_ms, 10.1, 1e-9);
}

TEST(PhaseProfiler, AccumulatesAndRendersPhases) {
  PhaseProfiler prof;
  prof.add("phase_a", 2e6, 1000, "cycles");
  prof.begin("phase_b");
  prof.end(0);
  EXPECT_EQ(prof.samples().size(), 2u);
  EXPECT_GE(prof.total_ns(), 2e6);
  const std::string table = prof.table();
  EXPECT_NE(table.find("phase_a"), std::string::npos);
  EXPECT_NE(table.find("cycles"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GT(w.elapsed_ns(), 0.0);
  EXPECT_NEAR(w.elapsed_ms(), w.elapsed_ns() * 1e-6, w.elapsed_ns() * 1e-6);
}

}  // namespace
}  // namespace psync::perf
