// Regenerates paper Fig. 11: FFT compute efficiency vs delivery block count
// k — P-sync (tracking the zero-latency bound thanks to pre-scheduled SCA^-1
// delivery) against the wormhole mesh whose per-packet routing overhead
// caps and then reverses the gains from smaller blocks.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "psync/analysis/mesh_model.hpp"
#include "psync/common/csv.hpp"
#include "psync/common/table.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/mesh/mesh.hpp"

namespace {

// Fig. 11 point as fetched from a driver RunRecord (workload "fig11").
struct Fig11Pt {
  std::uint64_t k = 0;
  double psync = 0.0;
  double mesh = 0.0;
};

int run() {
  using namespace psync;
  bench::ShapeChecks checks;

  // The k sweep dispatches through the shared experiment driver: one axis,
  // one registered workload, the pool free to run points in parallel.
  driver::ExperimentSpec spec;
  spec.workload = "fig11";
  spec.threads = 2;
  spec.axes.push_back({"k", {1, 2, 4, 8, 16, 32, 64}});
  const auto result = driver::Session().run(spec);

  std::vector<Fig11Pt> pts;
  for (const auto& rec : result.records) {
    Fig11Pt p;
    p.k = static_cast<std::uint64_t>(rec.knobs.front().second);
    p.psync = driver::metric(rec, "psync_eta");
    p.mesh = driver::metric(rec, "mesh_eta");
    pts.push_back(p);
  }

  Table t({"k", "P-sync eta (%)", "mesh eta (%)", "P-sync / mesh"});
  t.set_title(
      "Fig. 11: FFT compute efficiency vs delivery blocks k\n"
      "(P-sync achieves near-ideal efficiency as k increases; the mesh is\n"
      " limited by the overhead of routing smaller packets)");
  for (const auto& p : pts) {
    t.row()
        .add(static_cast<std::int64_t>(p.k))
        .add(p.psync * 100.0, 2)
        .add(p.mesh * 100.0, 2)
        .add(p.psync / p.mesh, 2);
  }
  std::printf("%s\n", t.to_string().c_str());

  if (auto dir = csv_output_dir()) {
    CsvWriter csv(*dir + "/fig11.csv", {"k", "psync_eta", "mesh_eta"});
    for (const auto& p : pts) {
      csv.row()
          .add(static_cast<std::int64_t>(p.k))
          .add(p.psync)
          .add(p.mesh);
    }
  }

  // Cycle-level cross-check of the mesh curve: run the blocked delivery on
  // the real wormhole mesh (memory at a corner, one block per processor per
  // round) and measure overall efficiency with balanced compute
  // (t_ck = P*F cycles), comparing against the Eq. 21/22 closed form.
  {
    std::printf("Cycle-level mesh check (16 processors, 256-sample rows):\n");
    Table mt({"k", "measured eta (%)", "Table II model (%)",
              "pipelined-source model (%)"});
    analysis::FftWorkload w16;
    w16.processors = 16;
    w16.fft_points = 256;
    bool low_k_ok = true;
    std::vector<double> measured_series;
    for (std::uint64_t k : {1ull, 4ull, 16ull, 64ull}) {
      const std::uint32_t P = 16;
      const std::uint32_t n_samples = 256;
      const std::uint32_t flits = n_samples / static_cast<std::uint32_t>(k);

      mesh::MeshParams mp;
      mp.width = 4;
      mp.height = 4;
      mesh::Mesh net(mp);
      std::vector<mesh::ConsumeSink> sinks(net.nodes());
      for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
        sinks[n].keep_log(true);
        net.set_sink(n, &sinks[n]);
      }
      // Round-robin blocked delivery, serialized at the corner memory node.
      for (std::uint64_t round = 0; round < k; ++round) {
        for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
          mesh::PacketDesc d;
          d.src = 0;
          d.dst = n;
          d.payload_flits = flits;
          d.payload_base = round;  // block tag
          net.inject(d);
        }
      }
      net.run_until_drained(10'000'000);

      // Per-node block completion times -> Model II recurrence with
      // balanced compute t_ck = P * F cycles and the final log2(k) phase.
      const double t_ck = static_cast<double>(P) * flits;
      const double t_cf =
          static_cast<double>(analysis::final_mults(w16, k)) /
          static_cast<double>(analysis::block_mults(w16, k)) * t_ck;
      double last_done = 0.0;
      for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
        std::vector<double> block_done(k, 0.0);
        const auto& log = sinks[n].log();
        const auto& cyc = sinks[n].log_cycles();
        for (std::size_t i = 0; i < log.size(); ++i) {
          if (!log[i].is_tail()) continue;  // block completes with its tail
          const std::uint64_t block = log[i].payload - (flits - 1);
          auto& bd = block_done[block];
          bd = std::max(bd, static_cast<double>(cyc[i]));
        }
        double cursor = 0.0;
        for (std::uint64_t b = 0; b < k; ++b) {
          cursor = std::max(cursor, block_done[b]) + t_ck;
        }
        cursor += t_cf;
        last_done = std::max(last_done, cursor);
      }
      const double t_c_total = static_cast<double>(k) * t_ck + t_cf;
      const double measured = t_c_total / last_done;
      const double model =
          analysis::table2_row(w16, k, analysis::MeshDeliveryParams{})
              .compute_efficiency;
      const double refined =
          analysis::mesh_delivery_efficiency_pipelined(
              16.0, static_cast<double>(flits), 1.0) *
          analysis::table1_row(w16, k).efficiency;
      mt.row()
          .add(static_cast<std::int64_t>(k))
          .add(measured * 100.0, 2)
          .add(model * 100.0, 2)
          .add(refined * 100.0, 2);
      measured_series.push_back(measured);
      if (k <= 4 && std::abs(measured - model) > 0.08) low_k_ok = false;
    }
    std::printf("%s", mt.to_string().c_str());
    std::printf(
        "(At large k the cycle-level mesh beats the closed form: Eq. 21 "
        "serializes the\n sqrt(P)*t_r header latency per packet, while a "
        "real pipelined source hides most\n of it. The model is a "
        "conservative bound; the peak-then-decline shape remains.)\n\n");
    checks.expect(low_k_ok,
                  "cycle-level mesh efficiency matches Eq. 21/22 within 8 "
                  "points at k <= 4");
    checks.expect(measured_series[2] > measured_series[0] &&
                      measured_series[3] < measured_series[2],
                  "cycle-level mesh efficiency also peaks then declines in k");
  }

  // Shape checks straight from the paper's narrative.
  bool psync_monotone = true;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].psync <= pts[i - 1].psync) psync_monotone = false;
  }
  checks.expect(psync_monotone, "P-sync efficiency rises monotonically in k");
  checks.expect(pts.back().psync > 0.99,
                "P-sync approaches ideal (>99%) at k=64");
  checks.expect(pts[3].mesh > pts[0].mesh && pts.back().mesh < pts[3].mesh,
                "mesh efficiency rises to k=8 then falls");
  checks.expect(pts.back().psync / pts.back().mesh > 1.9,
                "P-sync ~2x the mesh at k=64");
  bool dominated = true;
  for (const auto& p : pts) dominated &= p.psync > p.mesh;
  checks.expect(dominated, "P-sync dominates the mesh at every k");

  return checks.finish("bench_fig11_k_sweep");
}

}  // namespace

int main() { return run(); }
