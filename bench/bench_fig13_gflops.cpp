// Regenerates paper Fig. 13: simulated 2D FFT performance (GFLOPS) of the
// electronic mesh vs the P-sync architecture as cores scale 4 -> 4096, with
// the ideal curve (limited by 4 memory controllers and the row-level
// parallelism of the 1024 x 1024 matrix).
//
// Paper shape: P-sync converges to ideal; the mesh peaks around 256 cores
// and declines; for P > 256 P-sync is 2-10x better.
#include <cstdio>

#include "bench_util.hpp"
#include "psync/common/csv.hpp"
#include "psync/common/table.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/llmore/llmore.hpp"

namespace {

// Fig. 13 point as fetched from a driver RunRecord (workload "fig13").
struct Fig13Pt {
  std::uint64_t cores = 0;
  double gflops_mesh = 0.0;
  double gflops_psync = 0.0;
  double gflops_ideal = 0.0;
};

int run() {
  using namespace psync;
  bench::ShapeChecks checks;

  // Core-count sweep through the shared experiment driver (default LLMORE
  // params: 1024x1024, 4 ports x 80 Gb/s = 320 Gb/s aggregate).
  driver::ExperimentSpec spec;
  spec.workload = "fig13";
  spec.threads = 2;
  // Paper sweep: 4 to 4096 cores in powers of 4 (mesh dim 2..64).
  for (double c = 4; c <= 4096; c *= 4) {
    if (spec.axes.empty()) spec.axes.push_back({"cores", {}});
    spec.axes.front().values.push_back(c);
  }
  const auto result = driver::Session().run(spec);

  std::vector<Fig13Pt> pts;
  for (const auto& rec : result.records) {
    Fig13Pt pt;
    pt.cores = static_cast<std::uint64_t>(rec.knobs.front().second);
    pt.gflops_mesh = driver::metric(rec, "gflops_mesh");
    pt.gflops_psync = driver::metric(rec, "gflops_psync");
    pt.gflops_ideal = driver::metric(rec, "gflops_ideal");
    pts.push_back(pt);
  }

  Table t({"cores", "mesh GFLOPS", "P-sync GFLOPS", "ideal GFLOPS",
           "P-sync/mesh"});
  t.set_title(
      "Fig. 13: 2D FFT performance vs cores (1024x1024, Model I delivery,\n"
      "equal aggregate memory bandwidth; LLMORE-style phase simulation)");
  for (const auto& pt : pts) {
    t.row()
        .add(static_cast<std::int64_t>(pt.cores))
        .add(pt.gflops_mesh, 2)
        .add(pt.gflops_psync, 2)
        .add(pt.gflops_ideal, 2)
        .add(pt.gflops_psync / pt.gflops_mesh, 2);
  }
  std::printf("%s\n", t.to_string().c_str());

  if (auto dir = csv_output_dir()) {
    CsvWriter csv(*dir + "/fig13.csv",
                  {"cores", "mesh_gflops", "psync_gflops", "ideal_gflops"});
    for (const auto& pt : pts) {
      csv.row()
          .add(static_cast<std::int64_t>(pt.cores))
          .add(pt.gflops_mesh)
          .add(pt.gflops_psync)
          .add(pt.gflops_ideal);
    }
  }

  // Shape checks from the paper's narrative.
  std::uint64_t best_cores = 0;
  double best = 0.0;
  for (const auto& pt : pts) {
    if (pt.gflops_mesh > best) {
      best = pt.gflops_mesh;
      best_cores = pt.cores;
    }
  }
  checks.expect(best_cores == 256,
                "mesh performance peaks around 256 cores (paper)");
  checks.expect(pts.back().gflops_mesh < best,
                "mesh declines beyond its peak");
  bool psync_monotone = true;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].gflops_psync < pts[i - 1].gflops_psync * 0.999) {
      psync_monotone = false;
    }
  }
  checks.expect(psync_monotone, "P-sync performance never declines");
  checks.expect(pts.back().gflops_psync / pts.back().gflops_ideal > 0.85,
                "P-sync converges toward ideal at 4096 cores");
  for (const auto& pt : pts) {
    if (pt.cores > 256) {
      const double r = pt.gflops_psync / pt.gflops_mesh;
      checks.expect(r > 2.0 && r < 12.0,
                    "P-sync 2-10x the mesh at " + std::to_string(pt.cores) +
                        " cores (paper: 'two to ten times')");
    }
  }
  return checks.finish("bench_fig13_gflops");
}

}  // namespace

int main() { return run(); }
