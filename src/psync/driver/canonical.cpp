// Canonical-form serialization of experiment specs and run points, plus the
// stable FNV-1a digests over it — the content-addressed keys of the result
// cache (driver/session.hpp, serve/cache.hpp).
//
// Two rules make the digests sound:
//   1. Every field that can change a rendered result byte is serialized —
//      including every nested device, fault and reliability parameter —
//      with a fixed key order and %.17g doubles, so equal configurations
//      always hash equal and unequal ones (beyond hash collisions) never do.
//   2. Execution-policy fields (threads, guard, journal/resume, shard
//      window, cancel, observer) are excluded on the strength of the
//      repository's byte-identity invariants: serial == parallel ==
//      resumed == distributed, enforced by test_perf_equivalence,
//      test_campaign and test_dist. Anyone adding a result-bearing field
//      to a parameter block must extend this file (test_serve pins the
//      digest sensitivity).
#include <cstdio>
#include <sstream>

#include "psync/driver/experiment.hpp"
#include "psync/core/trace.hpp"

namespace psync::driver {

namespace {

// %.17g round-trips an IEEE-754 double bit-exactly, and formats a given bit
// pattern identically everywhere — the same argument campaign.cpp's journal
// codec relies on. `os << Num{v}` writes v that way.
struct Num {
  double v;
};

std::ostream& operator<<(std::ostream& os, Num n) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", n.v);
  return os << buf;
}

std::ostream& operator<<(std::ostream& os, const dram::DramParams& d) {
  return os << "{\"row_size_bits\":" << d.row_size_bits
            << ",\"bus_width_bits\":" << d.bus_width_bits
            << ",\"header_bits\":" << d.header_bits
            << ",\"row_switch_cycles\":" << d.row_switch_cycles
            << ",\"banks\":" << d.banks << '}';
}

std::ostream& operator<<(std::ostream& os, const core::ExecCostParams& e) {
  return os << "{\"fp_mult_ns\":" << Num{e.fp_mult_ns}
            << ",\"mults_per_butterfly\":" << e.mults_per_butterfly
            << ",\"fp_add_ns\":" << Num{e.fp_add_ns}
            << ",\"fp_mult_pj\":" << Num{e.fp_mult_pj}
            << ",\"fp_add_pj\":" << Num{e.fp_add_pj} << '}';
}

std::ostream& operator<<(std::ostream& os,
                         const photonic::PhotonicEnergyParams& p) {
  return os << "{\"laser\":{\"launch_power_dbm\":"
            << Num{p.laser.launch_power_dbm.value()}
            << ",\"wall_plug_efficiency\":" << Num{p.laser.wall_plug_efficiency}
            << ",\"coupler_loss_db\":" << Num{p.laser.coupler_loss_db.value()}
            << "},\"ring\":{\"through_loss_off_db\":"
            << Num{p.ring.through_loss_off_db.value()}
            << ",\"insertion_loss_on_db\":"
            << Num{p.ring.insertion_loss_on_db.value()}
            << ",\"extinction_ratio_db\":"
            << Num{p.ring.extinction_ratio_db.value()}
            << ",\"modulation_energy_fj_per_bit\":"
            << Num{p.ring.modulation_energy_fj_per_bit.value()}
            << ",\"thermal_tuning_uw\":"
            << Num{p.ring.thermal_tuning_uw.value()}
            << ",\"max_rate_gbps\":" << Num{p.ring.max_rate_gbps.value()}
            << "},\"detector\":{\"sensitivity_dbm\":"
            << Num{p.detector.sensitivity_dbm.value()}
            << ",\"receive_energy_fj_per_bit\":"
            << Num{p.detector.receive_energy_fj_per_bit.value()}
            << ",\"tap_loss_db\":" << Num{p.detector.tap_loss_db.value()}
            << "},\"waveguide\":{\"group_velocity_cm_per_ns\":"
            << Num{p.waveguide.group_velocity_cm_per_ns}
            << ",\"loss_straight_db_per_cm\":"
            << Num{p.waveguide.loss_straight_db_per_cm}
            << ",\"loss_curved_db_per_cm\":"
            << Num{p.waveguide.loss_curved_db_per_cm}
            << ",\"loss_per_bend_db\":" << Num{p.waveguide.loss_per_bend_db}
            << "},\"wdm\":{\"wavelength_count\":" << p.wdm.wavelength_count
            << ",\"rate_gbps_per_wavelength\":"
            << Num{p.wdm.rate_gbps_per_wavelength.value()}
            << "},\"serdes_energy_fj_per_bit\":"
            << Num{p.serdes_energy_fj_per_bit.value()}
            << ",\"max_launch_dbm\":" << Num{p.max_launch_dbm.value()} << '}';
}

std::ostream& operator<<(std::ostream& os, const reliability::FaultModel& f) {
  os << "{\"dead_wavelengths\":[";
  for (std::size_t i = 0; i < f.dead_wavelengths.size(); ++i) {
    if (i > 0) os << ',';
    os << f.dead_wavelengths[i];
  }
  os << "],\"random_ber\":" << Num{f.random_ber} << ",\"seed\":" << f.seed
     << ",\"drift_ber_per_mword\":" << Num{f.drift_ber_per_mword}
     << ",\"brownout_start_word\":" << f.brownout_start_word
     << ",\"brownout_words\":" << f.brownout_words
     << ",\"brownout_ber\":" << Num{f.brownout_ber} << '}';
  return os;
}

std::ostream& operator<<(std::ostream& os,
                         const reliability::ReliabilityParams& r) {
  return os << "{\"policy\":" << static_cast<int>(r.policy)
            << ",\"block_words\":" << r.block_words
            << ",\"max_retries\":" << r.max_retries
            << ",\"retry_backoff_slots\":" << r.retry_backoff_slots
            << ",\"spare_lanes\":" << r.spare_lanes
            << ",\"training_words\":" << r.training_words << '}';
}

std::ostream& operator<<(std::ostream& os,
                         const core::PsyncMachineParams& m) {
  return os << "{\"processors\":" << m.processors
            << ",\"rows\":" << m.matrix_rows << ",\"cols\":" << m.matrix_cols
            << ",\"sample_bits\":" << m.sample_bits
            << ",\"waveguide_gbps\":" << Num{m.waveguide_gbps}
            << ",\"blocks\":" << m.delivery_blocks
            << ",\"bus_length_cm\":" << Num{m.bus_length_cm}
            << ",\"exec\":" << m.exec
            << ",\"head\":{\"bus_ghz\":" << Num{m.head.bus_ghz}
            << ",\"waveguide_gbps\":" << Num{m.head.waveguide_gbps}
            << ",\"dram\":" << m.head.dram << "},\"photonics\":" << m.photonics
            << ",\"fault\":" << m.fault << ",\"reliability\":" << m.reliability
            << '}';
}

std::ostream& operator<<(std::ostream& os, const core::MeshMachineParams& m) {
  return os
         << "{\"grid\":" << m.grid << ",\"rows\":" << m.matrix_rows
         << ",\"cols\":" << m.matrix_cols
         << ",\"sample_bits\":" << m.sample_bits
         << ",\"elements_per_packet\":" << m.elements_per_packet
         << ",\"clock_ghz\":" << Num{m.clock_ghz}
         << ",\"memory_node\":" << m.memory_node
         << ",\"net\":{\"width\":" << m.net.width
         << ",\"height\":" << m.net.height
         << ",\"buffer_depth\":" << m.net.buffer_depth
         << ",\"route_delay\":" << m.net.route_delay
         << ",\"algo\":" << static_cast<int>(m.net.algo)
         << ",\"virtual_channels\":" << m.net.virtual_channels
         << "},\"mi\":{\"reorder_cycles_per_element\":"
         << m.mi.reorder_cycles_per_element
         << ",\"element_bits\":" << m.mi.element_bits
         << ",\"overlap_stages\":" << (m.mi.overlap_stages ? "true" : "false")
         << ",\"dram\":" << m.mi.dram << "},\"exec\":" << m.exec
         << ",\"orion\":{\"die_mm\":" << Num{m.orion.die_mm}
         << ",\"flit_bits\":" << Num{m.orion.flit_bits}
         << ",\"router_stages\":" << Num{m.orion.router_stages}
         << ",\"buffer_write_pj_per_bit\":"
         << Num{m.orion.buffer_write_pj_per_bit}
         << ",\"buffer_read_pj_per_bit\":"
         << Num{m.orion.buffer_read_pj_per_bit}
         << ",\"crossbar_pj_per_bit\":" << Num{m.orion.crossbar_pj_per_bit}
         << ",\"arbiter_pj_per_flit\":" << Num{m.orion.arbiter_pj_per_flit}
         << ",\"link_pj_per_bit_per_mm\":"
         << Num{m.orion.link_pj_per_bit_per_mm}
         << ",\"pipeline_pj_per_bit_per_stage\":"
         << Num{m.orion.pipeline_pj_per_bit_per_stage}
         << ",\"repeater_segment_mm\":" << Num{m.orion.repeater_segment_mm}
         << "}}";
}

// The shared core of both canonical forms: workload + parameter blocks +
// the per-run flags, under one seed. Specs append their axes; points append
// their applied knob values.
void put_common(std::ostringstream& os, const std::string& workload,
                std::uint64_t seed, bool with_mesh, bool verify,
                std::uint32_t transpose_elements,
                const core::PsyncMachineParams& machine,
                const core::MeshMachineParams& mesh) {
  os << "{\"schema\":" << core::kRunReportSchemaVersion << ",\"workload\":\""
     << workload << "\",\"seed\":" << seed << ",\"with_mesh\":"
     << (with_mesh ? "true" : "false") << ",\"verify\":"
     << (verify ? "true" : "false")
     << ",\"transpose_elements\":" << transpose_elements
     << ",\"machine\":" << machine << ",\"mesh\":" << mesh;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string ExperimentSpec::canonical_json() const {
  std::ostringstream os;
  put_common(os, workload, input_seed, with_mesh, verify, transpose_elements,
             machine, mesh);
  os << ",\"axes\":[";
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (a > 0) os << ',';
    os << "[\"" << axes[a].knob << "\",[";
    for (std::size_t v = 0; v < axes[a].values.size(); ++v) {
      if (v > 0) os << ',';
      os << Num{axes[a].values[v]};
    }
    os << "]]";
  }
  os << "]}";
  return os.str();
}

std::uint64_t spec_digest(const ExperimentSpec& spec) {
  return fnv1a64(spec.canonical_json());
}

std::string point_canonical_json(const std::string& workload,
                                 const RunPoint& pt) {
  std::ostringstream os;
  put_common(os, workload, pt.seed, pt.with_mesh, pt.verify,
             pt.transpose_elements, pt.machine, pt.mesh);
  os << ",\"knobs\":[";
  for (std::size_t k = 0; k < pt.knobs.size(); ++k) {
    if (k > 0) os << ',';
    os << "[\"" << pt.knobs[k].first << "\"," << Num{pt.knobs[k].second}
       << ']';
  }
  os << "]}";
  return os.str();
}

std::uint64_t point_digest(const std::string& workload, const RunPoint& pt) {
  return fnv1a64(point_canonical_json(workload, pt));
}

}  // namespace psync::driver
