// Electronic-mesh delivery model: regenerates paper Table II and the mesh
// curve of Fig. 11 (Section V-B-2).
//
// Assumptions (the paper's): square array, flit = FFT element, wormhole
// routing with t_r cycles of header processing per router, packets injected
// serially from a memory node at the periphery. Delivery time in cycles is
//
//     P*F + P*sqrt(P)*t_r                                   (Eq. 21)
//
// giving per-processor delivery efficiency
//
//     eta_d = (S_b*S_s/W_p) / (lambda + S_b*S_s/W_p)        (Eq. 22)
//
// with lambda = sqrt(P)*t_r cycles of routing overhead per packet. The
// mesh's overall compute efficiency is the Table I efficiency multiplied by
// eta_d.
#pragma once

#include <cstdint>
#include <vector>

#include "psync/analysis/fft_model.hpp"

namespace psync::analysis {

struct MeshDeliveryParams {
  /// Header routing delay per router, cycles (paper: 1).
  double t_r_cycles = 1.0;
};

struct Table2Row {
  std::uint64_t k = 0;
  double delivery_efficiency = 0.0;  // eta_d
  double compute_efficiency = 0.0;   // eta_d * Table I eta
};

/// Delivery time in cycles for P packets of F flits each (Eq. 21).
double mesh_delivery_cycles(double processors, double flits_per_packet,
                            double t_r_cycles);

/// Refinement of Eq. 21 that our cycle-level mesh validates: a pipelined
/// source pays one header flit per packet at the injection port, while the
/// sqrt(P)*t_r routing latency is paid once per round (it overlaps the
/// next packet's injection), not once per packet:
///
///     P*(F + 1) + sqrt(P)*t_r    per delivery round
///
/// Eq. 21 is the conservative bound (their TLM source apparently serialized
/// header traversal); this is the throughput-limited behaviour of a real
/// wormhole injection port; test_integration.cpp's Fig11 cycle-level test.
double mesh_delivery_cycles_pipelined(double processors,
                                      double flits_per_packet,
                                      double t_r_cycles);

/// Delivery efficiency under the pipelined-source model.
double mesh_delivery_efficiency_pipelined(double processors,
                                          double flits_per_packet,
                                          double t_r_cycles);

/// Delivery efficiency eta_d for a packet of `flits_per_packet` flits on a
/// P-processor square mesh (Eq. 21/22 with F-cycle serialization).
double mesh_delivery_efficiency(double processors, double flits_per_packet,
                                double t_r_cycles);

/// One Table II row: blocked FFT (workload `w`), k delivery blocks.
Table2Row table2_row(const FftWorkload& w, std::uint64_t k,
                     const MeshDeliveryParams& mesh);

/// All Table II rows for k in {1, 2, ..., max_k}.
std::vector<Table2Row> table2(const FftWorkload& w,
                              const MeshDeliveryParams& mesh,
                              std::uint64_t max_k = 64);

/// Fig. 11 series: compute efficiency vs k for the ideal/P-sync case
/// (Table I) and the latency-burdened mesh (Table II).
struct Fig11Point {
  std::uint64_t k = 0;
  double psync = 0.0;  // P-sync tracks the zero-latency bound
  double mesh = 0.0;
};
std::vector<Fig11Point> fig11(const FftWorkload& w,
                              const MeshDeliveryParams& mesh,
                              std::uint64_t max_k = 64);

}  // namespace psync::analysis
