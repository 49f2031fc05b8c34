#include "psync/driver/experiment.hpp"

#include <cmath>
#include <sstream>

#include "psync/common/check.hpp"

namespace psync::driver {

namespace {

// Count-valued knobs arrive as doubles from the sweep parser. Casting a
// negative value straight to an unsigned type is undefined behavior (and in
// practice wraps to a huge count), and a fractional value would silently
// truncate — the sweep would then report an axis value that was never
// actually simulated. Reject both up front, naming the knob.
template <typename UInt>
UInt count_knob(const std::string& knob, double value) {
  const double rounded = std::floor(value);
  if (!(value >= 0.0) || rounded != value) {
    throw ConfigError("knob '" + knob + "' must be a non-negative integer; " +
                      "got " + std::to_string(value));
  }
  return static_cast<UInt>(value);
}

}  // namespace

bool apply_knob(const std::string& knob, double value,
                core::PsyncMachineParams* machine,
                core::MeshMachineParams* mesh) {
  if (knob == "processors") {
    machine->processors = count_knob<std::size_t>(knob, value);
  } else if (knob == "blocks" || knob == "k") {
    machine->delivery_blocks = count_knob<std::size_t>(knob, value);
  } else if (knob == "rows") {
    machine->matrix_rows = count_knob<std::size_t>(knob, value);
    mesh->matrix_rows = machine->matrix_rows;
  } else if (knob == "cols") {
    machine->matrix_cols = count_knob<std::size_t>(knob, value);
    mesh->matrix_cols = machine->matrix_cols;
  } else if (knob == "waveguide_gbps") {
    machine->waveguide_gbps = value;
  } else if (knob == "bus_length_cm") {
    machine->bus_length_cm = value;
  } else if (knob == "margin_db") {
    // Rebuild the fault model from optical margin; keep the configured
    // dead lanes, injection seed and time-varying profile so only the
    // base BER moves with the axis.
    core::FaultModel fault =
        core::FaultModel::from_margin_db(value, machine->fault.seed);
    fault.dead_wavelengths = machine->fault.dead_wavelengths;
    fault.drift_ber_per_mword = machine->fault.drift_ber_per_mword;
    fault.brownout_start_word = machine->fault.brownout_start_word;
    fault.brownout_words = machine->fault.brownout_words;
    fault.brownout_ber = machine->fault.brownout_ber;
    machine->fault = fault;
  } else if (knob == "drift_ber_per_mword") {
    machine->fault.drift_ber_per_mword = value;
  } else if (knob == "brownout_ber") {
    machine->fault.brownout_ber = value;
  } else if (knob == "grid") {
    mesh->grid = count_knob<std::size_t>(knob, value);
  } else if (knob == "t_p") {
    mesh->mi.reorder_cycles_per_element = count_knob<std::uint32_t>(knob, value);
  } else if (knob == "elements_per_packet") {
    mesh->elements_per_packet = count_knob<std::uint32_t>(knob, value);
  } else if (knob == "virtual_channels") {
    mesh->net.virtual_channels = count_knob<std::uint32_t>(knob, value);
  } else if (knob == "cores") {
    // Consumed by the fig13 workload straight from the knob list; nothing
    // to write into the machine blocks.
  } else {
    return false;
  }
  return true;
}

void check_mesh_network(std::int64_t buffer_depth,
                        std::int64_t virtual_channels) {
  const auto check = [](const char* key, std::int64_t value,
                        std::int64_t max) {
    if (value < 1 || value > max) {
      throw ConfigError(std::string("mesh.") + key + " must be in [1, " +
                        std::to_string(max) + "]; got " +
                        std::to_string(value));
    }
  };
  check("buffer_depth", buffer_depth, 255);
  check("virtual_channels", virtual_channels, 16);
}

std::vector<std::string> known_knobs() {
  return {"processors",     "blocks",        "k",
          "rows",           "cols",          "waveguide_gbps",
          "bus_length_cm",  "margin_db",     "drift_ber_per_mword",
          "brownout_ber",   "grid",
          "t_p",            "elements_per_packet", "virtual_channels",
          "cores"};
}

namespace {

std::vector<double> parse_values(const std::string& list) {
  std::vector<double> out;
  std::istringstream in(list);
  double v = 0.0;
  while (in >> v) out.push_back(v);
  return out;
}

core::PsyncMachineParams machine_from_config(const IniConfig& cfg) {
  core::PsyncMachineParams p;
  p.processors =
      static_cast<std::size_t>(cfg.get_int("machine", "processors", 16));
  p.matrix_rows = static_cast<std::size_t>(cfg.get_int("machine", "rows", 64));
  p.matrix_cols = static_cast<std::size_t>(cfg.get_int("machine", "cols", 64));
  p.delivery_blocks =
      static_cast<std::size_t>(cfg.get_int("machine", "blocks", 1));
  p.waveguide_gbps = cfg.get_double("machine", "waveguide_gbps", 320.0);
  p.bus_length_cm = cfg.get_double("machine", "bus_length_cm", 8.0);
  p.head.dram.row_switch_cycles = static_cast<std::uint64_t>(
      cfg.get_int("machine", "dram_row_switch_cycles", 0));

  if (cfg.has_section("fault")) {
    if (cfg.has("fault", "margin_db")) {
      p.fault = core::FaultModel::from_margin_db(
          cfg.get_double("fault", "margin_db", 0.0));
    }
    p.fault.random_ber = cfg.get_double("fault", "random_ber", p.fault.random_ber);
    p.fault.seed = static_cast<std::uint64_t>(cfg.get_int("fault", "seed", 1));
    std::istringstream lanes(cfg.get_string("fault", "dead_wavelengths", ""));
    std::uint32_t lane = 0;
    while (lanes >> lane) p.fault.dead_wavelengths.push_back(lane);
    p.fault.drift_ber_per_mword =
        cfg.get_double("fault", "drift_ber_per_mword", 0.0);
    p.fault.brownout_start_word = static_cast<std::uint64_t>(
        cfg.get_int("fault", "brownout_start_word", 0));
    p.fault.brownout_words =
        static_cast<std::uint64_t>(cfg.get_int("fault", "brownout_words", 0));
    p.fault.brownout_ber = cfg.get_double("fault", "brownout_ber", 0.0);
  }
  if (cfg.has_section("reliability")) {
    auto& r = p.reliability;
    r.policy = reliability::policy_from_string(
        cfg.get_string("reliability", "policy", "off"));
    r.block_words =
        static_cast<std::size_t>(cfg.get_int("reliability", "block_words", 64));
    r.max_retries =
        static_cast<std::size_t>(cfg.get_int("reliability", "max_retries", 4));
    r.retry_backoff_slots = static_cast<std::size_t>(
        cfg.get_int("reliability", "backoff_slots", 8));
    r.spare_lanes =
        static_cast<std::size_t>(cfg.get_int("reliability", "spare_lanes", 4));
    r.training_words = static_cast<std::size_t>(
        cfg.get_int("reliability", "training_words", 16));
  }
  return p;
}

core::MeshMachineParams mesh_from_config(const IniConfig& cfg,
                                         const core::PsyncMachineParams& mp) {
  core::MeshMachineParams m;
  m.grid = static_cast<std::size_t>(cfg.get_int("mesh", "grid", 4));
  m.matrix_rows = mp.matrix_rows;
  m.matrix_cols = mp.matrix_cols;
  m.elements_per_packet =
      static_cast<std::uint32_t>(cfg.get_int("mesh", "elements_per_packet", 32));
  m.mi.reorder_cycles_per_element =
      static_cast<std::uint32_t>(cfg.get_int("mesh", "t_p", 1));
  m.mi.overlap_stages = cfg.get_bool("mesh", "overlap_stages", false);
  const auto depth = cfg.get_int("mesh", "buffer_depth", 2);
  const auto vcs = cfg.get_int("mesh", "virtual_channels", 1);
  check_mesh_network(depth, vcs);
  m.net.buffer_depth = static_cast<std::uint32_t>(depth);
  m.net.virtual_channels = static_cast<std::uint32_t>(vcs);
  m.mi.dram.row_switch_cycles = static_cast<std::uint64_t>(
      cfg.get_int("mesh", "dram_row_switch_cycles", 0));
  return m;
}

}  // namespace

ExperimentSpec spec_from_config(const IniConfig& cfg) {
  ExperimentSpec spec;
  spec.machine = machine_from_config(cfg);
  spec.mesh = mesh_from_config(cfg, spec.machine);
  spec.with_mesh = cfg.has_section("mesh");
  spec.verify = cfg.get_bool("experiment", "verify", true);
  spec.transpose_elements =
      static_cast<std::uint32_t>(cfg.get_int("experiment", "elements", 256));
  spec.input_seed =
      static_cast<std::uint64_t>(cfg.get_int("experiment", "input_seed", 2026));
  spec.threads =
      static_cast<std::size_t>(cfg.get_int("experiment", "threads", 1));
  if (spec.threads == 0) spec.threads = 1;
  spec.journal_path = cfg.get_string("experiment", "journal", "");

  if (cfg.has_section("guard")) {
    auto& g = spec.guard;
    g.isolate = cfg.get_bool("guard", "isolate", g.isolate);
    g.max_retries =
        static_cast<std::size_t>(cfg.get_int("guard", "max_retries", 1));
    g.point_timeout_ms = cfg.get_double("guard", "point_timeout_ms", 0.0);
    g.retry_backoff_ms = cfg.get_double("guard", "retry_backoff_ms", 5.0);
    g.max_point_mb =
        static_cast<std::size_t>(cfg.get_int("guard", "max_point_mb", 0));
  }

  const std::string kind = cfg.get_string("experiment", "kind", "fft2d");
  if (kind == "sweep") {
    // Legacy single-knob sweep of the 2D FFT machine.
    spec.workload = cfg.get_string("experiment", "workload", "fft2d");
    spec.verify = cfg.get_bool("experiment", "verify", false);
    const std::string vary =
        cfg.get_string("experiment", "vary", "processors");
    const auto values =
        parse_values(cfg.get_string("experiment", "values", ""));
    if (!values.empty()) spec.axes.push_back({vary, values});
  } else if (kind == "reliability_sweep") {
    spec.workload = "reliability";
    const auto margins =
        parse_values(cfg.get_string("experiment", "margins_db", ""));
    if (margins.empty()) {
      throw SimulationError("reliability_sweep: missing 'margins_db' list");
    }
    spec.axes.push_back({"margin_db", margins});
  } else {
    spec.workload = kind;
  }

  // Multi-knob grid: every key in [sweep] is an axis, in file order.
  if (cfg.has_section("sweep")) {
    for (const auto& knob : cfg.keys("sweep")) {
      const auto values = parse_values(cfg.get_string("sweep", knob, ""));
      if (values.empty()) {
        throw SimulationError("sweep axis '" + knob + "' has no values");
      }
      spec.axes.push_back({knob, values});
    }
  }
  return spec;
}

ConfigSchema sim_config_schema() {
  using Type = ConfigSchema::Type;
  ConfigSchema s;
  s.key("experiment", "kind", Type::kString)
      .key("experiment", "workload", Type::kString)
      .key("experiment", "json", Type::kBool)
      .key("experiment", "csv", Type::kBool)
      .key("experiment", "verify", Type::kBool)
      .key("experiment", "strict", Type::kBool)
      .key("experiment", "elements", Type::kInt)
      .key("experiment", "input_seed", Type::kInt)
      .key("experiment", "threads", Type::kInt)
      .key("experiment", "vary", Type::kString)
      .key("experiment", "values", Type::kDoubleList)
      .key("experiment", "margins_db", Type::kDoubleList)
      .key("experiment", "journal", Type::kString);
  s.key("guard", "isolate", Type::kBool)
      .key("guard", "max_retries", Type::kInt)
      .key("guard", "point_timeout_ms", Type::kDouble)
      .key("guard", "retry_backoff_ms", Type::kDouble)
      .key("guard", "max_point_mb", Type::kInt);
  s.key("machine", "processors", Type::kInt)
      .key("machine", "rows", Type::kInt)
      .key("machine", "cols", Type::kInt)
      .key("machine", "blocks", Type::kInt)
      .key("machine", "waveguide_gbps", Type::kDouble)
      .key("machine", "bus_length_cm", Type::kDouble)
      .key("machine", "dram_row_switch_cycles", Type::kInt);
  s.key("mesh", "grid", Type::kInt)
      .key("mesh", "t_p", Type::kInt)
      .key("mesh", "elements_per_packet", Type::kInt)
      .key("mesh", "overlap_stages", Type::kBool)
      .key("mesh", "buffer_depth", Type::kInt)
      .key("mesh", "virtual_channels", Type::kInt)
      .key("mesh", "dram_row_switch_cycles", Type::kInt);
  s.key("fault", "margin_db", Type::kDouble)
      .key("fault", "random_ber", Type::kDouble)
      .key("fault", "seed", Type::kInt)
      .key("fault", "dead_wavelengths", Type::kIntList)
      .key("fault", "drift_ber_per_mword", Type::kDouble)
      .key("fault", "brownout_start_word", Type::kInt)
      .key("fault", "brownout_words", Type::kInt)
      .key("fault", "brownout_ber", Type::kDouble);
  s.key("reliability", "policy", Type::kString)
      .key("reliability", "block_words", Type::kInt)
      .key("reliability", "max_retries", Type::kInt)
      .key("reliability", "backoff_slots", Type::kInt)
      .key("reliability", "spare_lanes", Type::kInt)
      .key("reliability", "training_words", Type::kInt);
  for (const auto& knob : known_knobs()) {
    s.key("sweep", knob, Type::kDoubleList);
  }
  return s;
}

}  // namespace psync::driver
