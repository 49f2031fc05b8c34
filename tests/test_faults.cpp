#include <gtest/gtest.h>

#include <cmath>

#include "psync/common/check.hpp"
#include "psync/core/cp_compile.hpp"
#include "psync/core/processor.hpp"
#include "psync/core/sca.hpp"
#include "psync/fft/fft.hpp"
#include "psync/reliability/fault_model.hpp"

namespace psync::core {
namespace {

using reliability::FaultModel;
using reliability::FaultReport;
using reliability::FaultStream;

// Corrupt a gather's received stream in place.
FaultReport inject_faults(const FaultModel& fault, GatherResult* result) {
  FaultReport rep;
  if (fault.trivial()) {
    fault.validate();
    rep.words_total = result->stream.size();
    return rep;
  }
  FaultStream stream(fault);
  for (auto& rec : result->stream) rec.word = stream.corrupt(rec.word, &rep);
  return rep;
}

// Corrupt a scatter's deliveries (and per-node buffers) in place.
FaultReport inject_faults(const FaultModel& fault, ScatterResult* result) {
  FaultReport rep;
  if (fault.trivial()) {
    fault.validate();
    rep.words_total = result->deliveries.size();
    return rep;
  }
  FaultStream stream(fault);
  for (auto& d : result->deliveries) {
    const Word w = stream.corrupt(d.word, &rep);
    d.word = w;
    result->received[static_cast<std::size_t>(d.node)]
                    [static_cast<std::size_t>(d.element)] = w;
  }
  return rep;
}

GatherResult clean_gather(std::size_t nodes, Slot elems,
                          std::uint64_t fill = ~0ULL) {
  ScaEngine engine(straight_bus_topology(nodes, 8.0));
  const auto sched = compile_gather_interleaved(nodes, elems);
  std::vector<std::vector<Word>> data(
      nodes, std::vector<Word>(static_cast<std::size_t>(elems), fill));
  return engine.gather(sched, data);
}

TEST(Faults, TrivialModelChangesNothing) {
  auto g = clean_gather(4, 8);
  const auto words_before = g.words();
  const auto rep = inject_faults(FaultModel{}, &g);
  EXPECT_EQ(g.words(), words_before);
  EXPECT_EQ(rep.words_corrupted, 0u);
  EXPECT_EQ(rep.words_total, 32u);
}

TEST(Faults, DeadWavelengthSilencesOneLaneEverywhere) {
  auto g = clean_gather(4, 8, ~0ULL);  // all-ones payloads
  FaultModel f;
  f.dead_wavelengths = {5, 63};
  const auto rep = inject_faults(f, &g);
  const Word mask = (Word{1} << 5) | (Word{1} << 63);
  for (const auto& rec : g.stream) {
    EXPECT_EQ(rec.word & mask, 0u);
    EXPECT_EQ(rec.word | mask, ~0ULL);  // only those lanes were touched
  }
  EXPECT_EQ(rep.words_corrupted, 32u);
  EXPECT_EQ(rep.bits_silenced, 32u * 2u);
  EXPECT_EQ(rep.bits_flipped, 0u);
}

TEST(Faults, RandomBerFlipsProportionally) {
  auto g = clean_gather(8, 128, 0);  // all-zero payloads: flips visible
  FaultModel f;
  f.random_ber = 0.01;
  f.seed = 7;
  const auto rep = inject_faults(f, &g);
  const double bits = 8.0 * 128.0 * 64.0;
  EXPECT_NEAR(static_cast<double>(rep.bits_flipped), bits * 0.01,
              4.0 * std::sqrt(bits * 0.01));  // ~4 sigma
  EXPECT_GT(rep.words_corrupted, 0u);
}

TEST(Faults, DeterministicForSeed) {
  auto a = clean_gather(4, 16, 0x1234567890ABCDEF);
  auto b = clean_gather(4, 16, 0x1234567890ABCDEF);
  FaultModel f;
  f.random_ber = 0.05;
  f.seed = 99;
  inject_faults(f, &a);
  inject_faults(f, &b);
  EXPECT_EQ(a.words(), b.words());
  f.seed = 100;
  auto c = clean_gather(4, 16, 0x1234567890ABCDEF);
  inject_faults(f, &c);
  EXPECT_NE(c.words(), a.words());
}

TEST(Faults, FromMarginTracksBerModel) {
  const auto good = FaultModel::from_margin_db(3.0);
  const auto bad = FaultModel::from_margin_db(-3.0);
  EXPECT_LT(good.random_ber, 1e-12);
  EXPECT_GT(bad.random_ber, 1e-4);
}

TEST(Faults, ScatterInjectionUpdatesNodeBuffers) {
  ScaEngine engine(straight_bus_topology(4, 8.0));
  const auto sched = compile_scatter_blocks(4, 4);
  std::vector<Word> burst(16, ~0ULL);
  auto r = engine.scatter(sched, burst);
  FaultModel f;
  f.dead_wavelengths = {0};
  inject_faults(f, &r);
  for (const auto& per_node : r.received) {
    for (Word w : per_node) {
      EXPECT_EQ(w & 1u, 0u);
    }
  }
}

TEST(Faults, BadLaneRejected) {
  auto g = clean_gather(2, 2);
  FaultModel f;
  f.dead_wavelengths = {64};
  EXPECT_THROW((void)inject_faults(f, &g), SimulationError);
}

// End-to-end: a degraded link corrupts a real FFT's data by an amount that
// tracks the BER — the reliability cliff of Section III-B made visible.
TEST(Faults, CorruptedTransportDegradesFftAccuracy) {
  const std::size_t nodes = 8, n = 64;
  ScaEngine engine(straight_bus_topology(nodes, 8.0));
  const auto sched = compile_scatter_blocks(nodes, static_cast<Slot>(n));

  // One 64-point row per node, sent as packed samples.
  std::vector<Word> burst;
  std::vector<fft::Complex> signal(n);
  for (std::size_t i = 0; i < n; ++i) {
    signal[i] = {std::sin(0.3 * static_cast<double>(i)), 0.0};
  }
  for (std::size_t node = 0; node < nodes; ++node) {
    for (std::size_t i = 0; i < n; ++i) burst.push_back(pack_sample(signal[i]));
  }

  auto clean = engine.scatter(sched, burst);
  auto dirty = engine.scatter(sched, burst);
  inject_faults(FaultModel::from_margin_db(-2.0, 3), &dirty);

  fft::FftPlan plan(n);
  double clean_err = 0.0, dirty_err = 0.0;
  std::vector<fft::Complex> ref(signal);
  plan.forward(ref);
  for (std::size_t node = 0; node < nodes; ++node) {
    std::vector<fft::Complex> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = unpack_sample(clean.received[node][i]);
      b[i] = unpack_sample(dirty.received[node][i]);
    }
    plan.forward(a);
    plan.forward(b);
    clean_err = std::max(clean_err, fft::max_abs_diff(a, ref));
    dirty_err = std::max(dirty_err, fft::max_abs_diff(b, ref));
  }
  EXPECT_LT(clean_err, 1e-4);
  EXPECT_GT(dirty_err, 10.0 * clean_err);
}

}  // namespace
}  // namespace psync::core
