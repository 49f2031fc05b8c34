// Driver subsystem: Workload registry dispatch, SweepEngine grid expansion
// and thread-pool determinism (parallel == serial, byte for byte), and the
// shared FftPlan cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "psync/analysis/fft_model.hpp"
#include "psync/analysis/mesh_model.hpp"
#include "psync/common/check.hpp"
#include "psync/common/config.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/fft/plan_cache.hpp"
#include "psync/llmore/llmore.hpp"

namespace psync::driver {
namespace {

// Small machine so every workload runs in milliseconds.
ExperimentSpec small_spec(const std::string& workload) {
  ExperimentSpec spec;
  spec.workload = workload;
  spec.machine.processors = 4;
  spec.machine.matrix_rows = 16;
  spec.machine.matrix_cols = 16;
  spec.machine.delivery_blocks = 2;
  spec.mesh.grid = 2;
  spec.mesh.matrix_rows = 16;
  spec.mesh.matrix_cols = 16;
  spec.mesh.elements_per_packet = 16;
  spec.transpose_elements = 32;
  return spec;
}

TEST(WorkloadRegistry, ListsEveryBuiltinKind) {
  const auto names = workload_names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const char* kind : {"fft2d", "fft1d", "transpose", "pipeline", "mesh",
                           "reliability", "degradation_sweep", "fig11",
                           "fig13"}) {
    EXPECT_TRUE(have.count(kind)) << "missing builtin workload: " << kind;
  }
}

TEST(WorkloadRegistry, UnknownKindThrowsNamingKnownKinds) {
  try {
    (void)find_workload("fft3d");
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("fft3d"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("fft2d"), std::string::npos);
  }
}

TEST(WorkloadRegistry, EveryKindDispatchesAndProducesMetrics) {
  for (const auto& kind : workload_names()) {
    auto spec = small_spec(kind);
    if (kind == "fig11") spec.axes.push_back({"k", {4}});
    if (kind == "fig13") spec.axes.push_back({"cores", {16}});
    const auto result = Session().run(spec);
    ASSERT_EQ(result.records.size(), 1u) << kind;
    const auto& rec = result.records.front();
    EXPECT_EQ(rec.workload, kind);
    EXPECT_FALSE(rec.metrics.empty()) << kind;
    for (const auto& m : rec.metrics) {
      EXPECT_TRUE(std::isfinite(m.value)) << kind << "." << m.name;
    }
  }
}

// The paper-figure workloads through the full driver path (grid expansion,
// two pool threads, records in grid order) return exactly the closed forms
// the Fig11.*, Table1.*, Table2.* and Llmore.Fig13*/Fig14* tests check.
TEST(WorkloadRegistry, Fig11SweepOnTwoThreadsEqualsTable1And2Rows) {
  ExperimentSpec spec;
  spec.workload = "fig11";
  spec.threads = 2;
  spec.axes.push_back({"k", {1, 2, 4, 8, 16, 32, 64}});
  const auto result = Session().run(spec);
  ASSERT_EQ(result.records.size(), 7u);
  const analysis::FftWorkload w;
  const analysis::MeshDeliveryParams mesh;
  std::uint64_t k = 1;
  for (const auto& rec : result.records) {
    SCOPED_TRACE("k = " + std::to_string(k));
    ASSERT_EQ(rec.knobs.size(), 1u);
    EXPECT_EQ(rec.knobs.front().second, static_cast<double>(k));
    EXPECT_EQ(metric(rec, "psync_eta"), analysis::table1_row(w, k).efficiency);
    EXPECT_EQ(metric(rec, "mesh_eta"),
              analysis::table2_row(w, k, mesh).compute_efficiency);
    k *= 2;
  }
}

// `blocks` is the key and `k` its alias: a [sweep] over either sets the
// same machine field, so fig11 must print the same efficiencies for both.
TEST(WorkloadRegistry, Fig11HonoursTheBlocksKnobAsItsKAlias) {
  for (const std::string knob : {"blocks", "k"}) {
    SCOPED_TRACE(knob);
    const auto result = Session().run(driver::spec_from_config(
        IniConfig::parse("[experiment]\nkind = fig11\n[sweep]\n" + knob +
                         " = 1 8 64\n")));
    std::vector<std::string> printed;
    for (const auto& rec : result.records) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.4f", metric(rec, "psync_eta"));
      printed.emplace_back(buf);
    }
    EXPECT_EQ(printed,
              (std::vector<std::string>{"0.5000", "0.9195", "0.9938"}));
  }
}

TEST(WorkloadRegistry, Fig13SweepOnTwoThreadsEqualsLlmoreSimulatePoint) {
  ExperimentSpec spec;
  spec.workload = "fig13";
  spec.threads = 2;
  spec.axes.push_back({"cores", {4, 16, 64, 256, 1024, 4096}});
  const auto result = Session().run(spec);
  ASSERT_EQ(result.records.size(), 6u);
  const llmore::LlmoreParams p;
  std::uint64_t cores = 4;
  for (const auto& rec : result.records) {
    SCOPED_TRACE(std::to_string(cores) + " cores");
    ASSERT_EQ(rec.knobs.size(), 1u);
    EXPECT_EQ(rec.knobs.front().second, static_cast<double>(cores));
    const auto pt = llmore::simulate_point(p, cores);
    EXPECT_EQ(metric(rec, "gflops_mesh"), pt.gflops_mesh);
    EXPECT_EQ(metric(rec, "gflops_psync"), pt.gflops_psync);
    EXPECT_EQ(metric(rec, "gflops_ideal"), pt.gflops_ideal);
    EXPECT_EQ(metric(rec, "reorg_frac_mesh"), pt.reorg_frac_mesh);
    EXPECT_EQ(metric(rec, "reorg_frac_psync"), pt.reorg_frac_psync);
    cores *= 4;
  }
}

TEST(WorkloadRegistry, MetricLookupThrowsOnMissingName) {
  const auto result = Session().run(small_spec("transpose"));
  const auto& rec = result.records.front();
  EXPECT_GT(metric(rec, "cycles"), 0.0);
  EXPECT_THROW((void)metric(rec, "no_such_metric"), SimulationError);
}

TEST(SweepEngine, PointSeedIsDeterministicAndIndexDependent) {
  const auto s0 = SweepEngine::point_seed(2026, 0);
  EXPECT_EQ(s0, SweepEngine::point_seed(2026, 0));
  EXPECT_NE(s0, SweepEngine::point_seed(2026, 1));
  EXPECT_NE(s0, SweepEngine::point_seed(2027, 0));
}

TEST(SweepEngine, ExpandsCartesianGridRowMajor) {
  auto spec = small_spec("fft2d");
  spec.axes.push_back({"blocks", {1, 2}});
  spec.axes.push_back({"processors", {4, 8, 16}});
  const auto points = SweepEngine::expand(spec);
  ASSERT_EQ(points.size(), 6u);
  // First axis slowest: blocks=1 for the first three points.
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    ASSERT_EQ(points[i].knobs.size(), 2u);
    EXPECT_EQ(points[i].knobs[0].first, "blocks");
    EXPECT_EQ(points[i].knobs[1].first, "processors");
    EXPECT_DOUBLE_EQ(points[i].knobs[0].second, i < 3 ? 1.0 : 2.0);
    const double procs[] = {4.0, 8.0, 16.0};
    EXPECT_DOUBLE_EQ(points[i].knobs[1].second, procs[i % 3]);
    // Knobs are applied to the parameter blocks, not just recorded.
    EXPECT_EQ(points[i].machine.delivery_blocks, i < 3 ? 1u : 2u);
    EXPECT_EQ(points[i].machine.processors,
              static_cast<std::size_t>(procs[i % 3]));
    EXPECT_EQ(points[i].seed, SweepEngine::point_seed(spec.input_seed, i));
  }
}

TEST(SweepEngine, NoAxesYieldsSinglePoint) {
  const auto points = SweepEngine::expand(small_spec("fft2d"));
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points.front().knobs.empty());
}

TEST(SweepEngine, UnknownKnobThrows) {
  auto spec = small_spec("fft2d");
  spec.axes.push_back({"procesors", {4, 8}});
  EXPECT_THROW((void)SweepEngine::expand(spec), SimulationError);
}

// A caller that skips Session::validate still gets a typed error, not an
// abort, for an axis with no values.
TEST(SweepEngine, EmptyAxisIsAConfigErrorNamingTheAxis) {
  auto spec = small_spec("fft2d");
  spec.axes.push_back({"processors", {4}});
  spec.axes.push_back({"blocks", {}});
  try {
    (void)SweepEngine::expand(spec);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'blocks'"), std::string::npos)
        << e.what();
  }
}

TEST(SweepEngine, ApplyKnobRejectsUnknownNames) {
  core::PsyncMachineParams m;
  core::MeshMachineParams mm;
  for (const auto& knob : known_knobs()) {
    EXPECT_TRUE(apply_knob(knob, 1.0, &m, &mm)) << knob;
  }
  EXPECT_FALSE(apply_knob("warp_factor", 9.0, &m, &mm));
}

// Regression: count-valued knobs used to be cast straight from double to an
// unsigned type — UB for negative values, silent truncation for fractional
// ones (a sweep would record processors = 16.5 but simulate 16).
TEST(SweepEngine, ApplyKnobRejectsNonIntegerCounts) {
  core::PsyncMachineParams m;
  core::MeshMachineParams mm;
  EXPECT_THROW((void)apply_knob("processors", -1.0, &m, &mm), ConfigError);
  EXPECT_THROW((void)apply_knob("processors", 16.5, &m, &mm), ConfigError);
  EXPECT_THROW((void)apply_knob("t_p", -4.0, &m, &mm), ConfigError);
  EXPECT_THROW((void)apply_knob("virtual_channels", 2.25, &m, &mm),
               ConfigError);
  EXPECT_THROW((void)apply_knob("k", std::nan(""), &m, &mm), ConfigError);
  // Exact integral values still apply.
  EXPECT_TRUE(apply_knob("processors", 16.0, &m, &mm));
  EXPECT_EQ(m.processors, 16u);
  EXPECT_TRUE(apply_knob("t_p", 4.0, &m, &mm));
  EXPECT_EQ(mm.mi.reorder_cycles_per_element, 4u);
}

TEST(SweepEngine, MapUsesThePoolAndPreservesOrder) {
  SweepEngine engine(4);
  std::vector<int> items(64);
  for (int i = 0; i < 64; ++i) items[i] = i;
  std::atomic<int> calls{0};
  const auto out = engine.map(items, [&](int v, core::Scratch&) {
    calls.fetch_add(1);
    return v * v;
  });
  EXPECT_EQ(calls.load(), 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepEngine, MapRethrowsFirstExceptionByIndex) {
  SweepEngine engine(4);
  std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
  try {
    (void)engine.map(items, [](int v, core::Scratch&) {
      if (v == 3 || v == 6) throw SimulationError("boom " + std::to_string(v));
      return v;
    });
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

// The determinism contract: an N-point sweep renders byte-identically
// whether it ran serially or on a pool, because seeds come from the grid
// index and records land in grid order.
TEST(SweepEngine, ParallelSweepBitIdenticalToSerial) {
  auto spec = small_spec("fft2d");
  spec.with_mesh = true;
  spec.axes.push_back({"blocks", {1, 2, 4}});
  spec.axes.push_back({"processors", {4, 8}});

  auto serial = spec;
  serial.threads = 1;
  auto pooled = spec;
  pooled.threads = 4;
  const auto a = Session().run(serial);
  const auto b = Session().run(pooled);

  EXPECT_EQ(sweep_table(a, "t"), sweep_table(b, "t"));
  EXPECT_EQ(sweep_json(a), sweep_json(b));
  EXPECT_EQ(sweep_csv(a), sweep_csv(b));
}

// Same contract under fault injection + retry: the injection RNG is seeded
// from the machine params, and the input RNG from the point seed, so the
// error/retry counters cannot depend on thread scheduling.
TEST(SweepEngine, ParallelReliabilitySweepBitIdenticalToSerial) {
  auto spec = small_spec("reliability");
  spec.machine.fault.dead_wavelengths = {13};
  spec.machine.fault.seed = 7;
  spec.machine.reliability.policy = reliability::ReliabilityPolicy::kCorrectRetry;
  spec.machine.reliability.spare_lanes = 2;
  spec.axes.push_back({"margin_db", {0.0, -1.5, -2.5}});

  auto serial = spec;
  serial.threads = 1;
  auto pooled = spec;
  pooled.threads = 4;
  const auto a = Session().run(serial);
  const auto b = Session().run(pooled);

  EXPECT_EQ(sweep_table(a, "t"), sweep_table(b, "t"));
  EXPECT_EQ(sweep_json(a), sweep_json(b));

  // Margin knob actually moved the injected BER across the axis.
  EXPECT_LT(metric(a.records[0], "ber"), metric(a.records[2], "ber"));
}

// Regression: [mesh] buffer_depth = -1 used to pass validation, wrap to
// 2^32-1 in the uint32 cast and run the point to its cycle cap. The mesh
// network ranges (mesh::Mesh packs occupancy and credits into bytes) are now
// checked when the config is read, naming the key.
TEST(SpecFromConfig, MeshNetworkOutOfRangeIsAConfigErrorNamingTheKey) {
  const auto parse = [](const std::string& mesh_line) {
    return spec_from_config(IniConfig::parse(
        "[experiment]\nkind = transpose\n[mesh]\n" + mesh_line + "\n"));
  };
  const auto expect_rejected = [&](const std::string& line,
                                   const std::string& key) {
    try {
      (void)parse(line);
      ADD_FAILURE() << line << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  for (const char* depth : {"-1", "0", "256", "300"}) {
    expect_rejected(std::string("buffer_depth = ") + depth,
                    "mesh.buffer_depth");
  }
  for (const char* vcs : {"0", "17"}) {
    expect_rejected(std::string("virtual_channels = ") + vcs,
                    "mesh.virtual_channels");
  }
  EXPECT_EQ(parse("buffer_depth = 1").mesh.net.buffer_depth, 1u);
  EXPECT_EQ(parse("buffer_depth = 255").mesh.net.buffer_depth, 255u);
  EXPECT_EQ(parse("virtual_channels = 16").mesh.net.virtual_channels, 16u);
}

TEST(Runner, SingleRunCarriesFullReport) {
  auto spec = small_spec("fft2d");
  spec.with_mesh = true;
  const auto result = Session().run(spec);
  const auto& rec = result.records.front();
  ASSERT_TRUE(rec.psync.has_value());
  ASSERT_TRUE(rec.mesh.has_value());
  EXPECT_GT(rec.psync->total_ns, 0.0);
  EXPECT_NEAR(metric(rec, "total_us"), rec.psync->total_ns * 1e-3, 1e-9);
  EXPECT_LT(rec.psync->max_error_vs_reference, 1e-6);
}

TEST(PlanCache, ReturnsTheSameInstancePerSize) {
  const auto& a = fft::shared_plan(64);
  const auto& b = fft::shared_plan(64);
  const auto& c = fft::shared_plan(128);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(c.size(), 128u);
  EXPECT_GE(fft::shared_plan_cache_size(), 2u);
}

TEST(PlanCache, ConcurrentLookupsAgree) {
  constexpr int kThreads = 8;
  std::vector<const fft::FftPlan*> seen(kThreads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] { seen[t] = &fft::shared_plan(512); });
  }
  for (auto& th : pool) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
}

TEST(PlanCache, RejectsInvalidSizes) {
  EXPECT_THROW((void)fft::shared_plan(0), SimulationError);
  EXPECT_THROW((void)fft::shared_plan(96), SimulationError);
}

}  // namespace
}  // namespace psync::driver
