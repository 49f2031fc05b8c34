// ScratchReuse: one core::Scratch carried from point to point must give
// every point exactly what a machine with a fresh Scratch gives it. A stale
// tail left in a reused buffer by a larger or differently shaped point
// would show in the report, the result or max_err. A repeated point must
// stop growing the Scratch, and a pooled sweep (one Scratch per worker)
// must render the same bytes as a serial one.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "psync/core/psync_machine.hpp"
#include "psync/core/scratch.hpp"
#include "psync/core/trace.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/driver/sweep.hpp"
#include "psync/driver/workload.hpp"

namespace psync::core {
namespace {

struct Shape {
  std::size_t rows, cols, processors, blocks;
};

// Large, small, non-square, then large again: every buffer shrinks, grows
// and changes shape between consecutive points.
const std::vector<Shape> kShapes = {
    {256, 256, 64, 8}, {64, 64, 4, 1}, {128, 256, 16, 4}, {256, 256, 64, 8}};

PsyncMachineParams params_of(const Shape& s) {
  PsyncMachineParams p;
  p.matrix_rows = s.rows;
  p.matrix_cols = s.cols;
  p.processors = s.processors;
  p.delivery_blocks = s.blocks;
  return p;
}

void correct_two_dead_lanes(PsyncMachineParams* p) {
  p->fault.dead_wavelengths = {13, 41};
  p->fault.random_ber = 1e-6;
  p->fault.seed = 5;
  p->reliability.policy = reliability::ReliabilityPolicy::kCorrectRetry;
  p->reliability.spare_lanes = 2;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const PsyncRunReport& got, const PsyncRunReport& want) {
  EXPECT_EQ(run_report_json(got), run_report_json(want));
  EXPECT_EQ(bits(got.total_ns), bits(want.total_ns));
  EXPECT_EQ(bits(got.reorg_ns), bits(want.reorg_ns));
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(bits(got.gflops), bits(want.gflops));
  EXPECT_EQ(bits(got.compute_efficiency), bits(want.compute_efficiency));
  EXPECT_EQ(got.sca_gap_free, want.sca_gap_free);
  EXPECT_EQ(got.sca_collisions, want.sca_collisions);
  EXPECT_EQ(bits(got.max_error_vs_reference),
            bits(want.max_error_vs_reference));
  EXPECT_EQ(bits(got.comm_energy_pj), bits(want.comm_energy_pj));
  EXPECT_EQ(bits(got.compute_energy_pj), bits(want.compute_energy_pj));
  EXPECT_EQ(got.reliability_overhead_slots, want.reliability_overhead_slots);
  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (std::size_t i = 0; i < got.phases.size(); ++i) {
    EXPECT_EQ(got.phases[i].name, want.phases[i].name);
    EXPECT_EQ(bits(got.phases[i].start_ns), bits(want.phases[i].start_ns));
    EXPECT_EQ(bits(got.phases[i].end_ns), bits(want.phases[i].end_ns));
  }
}

void expect_bitwise(const std::vector<std::complex<double>>& got,
                    const std::vector<std::complex<double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(got[0])),
            0);
}

// Runs kShapes in turn on one Scratch, each against a fresh machine.
void run_shapes_in_turn(
    const std::function<void(PsyncMachineParams*)>& adjust) {
  Scratch scratch;
  std::uint64_t seed = 40;
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.rows) + "x" + std::to_string(s.cols) +
                 " P=" + std::to_string(s.processors) +
                 " k=" + std::to_string(s.blocks));
    PsyncMachineParams p = params_of(s);
    adjust(&p);
    driver::random_input(s.rows * s.cols, ++seed, &scratch.input);
    PsyncMachine fresh(p);
    const PsyncRunReport want = fresh.run_fft2d(scratch.input);
    PsyncMachine reused(p, scratch);
    const PsyncRunReport got = reused.run_fft2d(scratch.input);
    expect_same(got, want);
    expect_bitwise(reused.result(), fresh.result());
    EXPECT_LT(got.max_error_vs_reference, 1e-4);
  }
}

// One NodeWords re-laid out for more, then fewer, nodes: every node's words
// sit right after the previous node's, whatever the layout before.
TEST(ScratchReuse, NodeWordsRelayoutKeepsNodesBackToBack) {
  NodeWords nw;
  for (const auto& [nodes, per] :
       std::vector<std::pair<std::size_t, std::size_t>>{{3, 4}, {5, 2}, {2, 7}}) {
    nw.resize_equal(nodes, per);
    ASSERT_EQ(nw.nodes(), nodes);
    EXPECT_EQ(nw.words.size(), nodes * per);
    for (std::size_t i = 0; i < nodes; ++i) {
      EXPECT_EQ(nw.node(i).data(), nw.words.data() + i * per);
      EXPECT_EQ(nw.node(i).size(), per);
    }
  }
}

TEST(ScratchReuse, ChangingShapesMatchFreshMachines) {
  run_shapes_in_turn([](PsyncMachineParams*) {});
}

TEST(ScratchReuse, ChangingShapesMatchFreshMachinesUnderCorrectPolicy) {
  run_shapes_in_turn(correct_two_dead_lanes);
}

// A faulty_link-style point through the driver: the input, a clean and a
// faulty machine and the verify all run out of the one Scratch.
TEST(ScratchReuse, RepeatedPointStopsGrowingTheScratch) {
  driver::RunPoint pt;
  pt.machine = params_of({256, 256, 16, 4});
  correct_two_dead_lanes(&pt.machine);
  pt.seed = 7;
  const driver::Workload& w = driver::find_workload("reliability");
  Scratch scratch;
  const driver::RunRecord first = w.run(pt, scratch);
  const std::size_t sized = scratch.capacity_bytes();
  EXPECT_GT(sized, 0u);
  // The collectives' per-node clocks, listen entries and latch times live
  // in the Scratch too, so they count towards its size.
  EXPECT_GT(scratch.sca.clock.capacity(), 0u);
  EXPECT_GT(scratch.sca.entries.capacity(), 0u);
  EXPECT_GT(scratch.sca.entry_at.capacity(), 0u);
  EXPECT_GT(scratch.sca.latch_ps.capacity(), 0u);
  for (int i = 0; i < 3; ++i) {
    const driver::RunRecord again = w.run(pt, scratch);
    EXPECT_EQ(scratch.capacity_bytes(), sized) << "run " << i + 2;
    ASSERT_EQ(again.metrics.size(), first.metrics.size());
    for (std::size_t m = 0; m < first.metrics.size(); ++m) {
      EXPECT_EQ(bits(again.metrics[m].value), bits(first.metrics[m].value))
          << first.metrics[m].name;
    }
  }
}

// Workers hold a Scratch each and claim points in any order, so each one
// sees shapes change under it. Run under TSan too: no Scratch is shared.
TEST(ScratchReuse, PooledSweepRendersLikeSerial) {
  driver::ExperimentSpec spec;
  spec.workload = "fft2d";
  spec.machine.matrix_rows = 128;
  spec.machine.matrix_cols = 256;
  spec.axes.push_back({"processors", {16, 4, 64, 8}});
  spec.axes.push_back({"blocks", {4, 1}});
  auto serial = spec;
  serial.threads = 1;
  auto pooled = spec;
  pooled.threads = 4;
  const auto a = driver::Session().run(serial);
  const auto b = driver::Session().run(pooled);
  EXPECT_EQ(driver::sweep_json(a), driver::sweep_json(b));
  EXPECT_EQ(driver::sweep_csv(a), driver::sweep_csv(b));
}

}  // namespace
}  // namespace psync::core
