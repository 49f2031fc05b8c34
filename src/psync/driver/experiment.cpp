#include "psync/driver/experiment.hpp"

#include <cstdio>
#include <sstream>
#include <type_traits>

#include "psync/common/check.hpp"

namespace psync::driver {

namespace {

using enum ConfigSchema::Type;
using Target = ConfigKey::Target;

// Ini integers are int64: the largest value an integer key can carry.
constexpr double kInt64Max = 9223372036854775807.0;

// An admitted value, parsed into the field's type.
template <typename Field>
void assign(Field& field, const std::string& text) {
  if constexpr (std::is_same_v<Field, bool>) {
    field = parse_bool(text).value();
  } else if constexpr (std::is_same_v<Field, std::string>) {
    field = text;
  } else if constexpr (std::is_integral_v<Field>) {
    field = static_cast<Field>(parse_int(text).value());
  } else {
    field = parse_double(text).value();
  }
}

// Binds a row to one field reachable from a Target `t`: the setter parses
// the text into it, the getter reads it back for range checks.
#define PSYNC_FIELD(lvalue)                                             \
  [](const Target& t, const std::string& v) { assign(t.lvalue, v); }, \
      [](const Target& t) { return static_cast<double>(t.lvalue); }
#define PSYNC_TEXT(lvalue) \
  [](const Target& t, const std::string& v) { assign(t.lvalue, v); }, nullptr
// rows and cols size the matrix of both machines.
#define PSYNC_MATRIX(field)                                              \
  [](const Target& t, const std::string& v) {                            \
    assign(t.machine->field, v);                                         \
    t.mesh->field = t.machine->field;                                    \
  },                                                                     \
      [](const Target& t) { return static_cast<double>(t.machine->field); }

// Rows are applied in this order; margin_db precedes random_ber so an
// explicit random_ber wins.
const std::vector<ConfigKey> kKeys = {
    {"experiment", "kind", kString, {}, "fft2d", PSYNC_TEXT(spec->workload)},
    {"experiment", "workload", kString, {}, "fft2d", nullptr, nullptr},
    {"experiment", "json", kBool, {}, "false", nullptr, nullptr},
    {"experiment", "csv", kBool, {}, "false", nullptr, nullptr},
    {"experiment", "verify", kBool, {}, "true", PSYNC_FIELD(spec->verify)},
    {"experiment", "strict", kBool, {}, "false", nullptr, nullptr},
    {"experiment", "elements", kInt, {1, 65536}, "256",
     PSYNC_FIELD(spec->transpose_elements)},
    {"experiment", "input_seed", kInt, {0, kInt64Max}, "2026",
     PSYNC_FIELD(spec->input_seed)},
    {"experiment", "threads", kInt, {0, 1024}, "1",
     [](const Target& t, const std::string& v) {
       assign(t.spec->threads, v);
       if (t.spec->threads == 0) t.spec->threads = 1;
     },
     [](const Target& t) { return static_cast<double>(t.spec->threads); }},
    {"experiment", "vary", kString, {}, "processors", nullptr, nullptr},
    {"experiment", "values", kDoubleList, {}, "", nullptr, nullptr},
    {"experiment", "margins_db", kDoubleList, {}, "", nullptr, nullptr},
    {"experiment", "journal", kString, {}, "", PSYNC_TEXT(spec->journal_path)},
    {"guard", "isolate", kBool, {}, "true", PSYNC_FIELD(spec->guard.isolate)},
    {"guard", "max_retries", kInt, {0, 100}, "1",
     PSYNC_FIELD(spec->guard.max_retries)},
    {"guard", "point_timeout_ms", kDouble, {0, 86400000}, "0",
     PSYNC_FIELD(spec->guard.point_timeout_ms)},
    {"guard", "retry_backoff_ms", kDouble, {0, 60000}, "5",
     PSYNC_FIELD(spec->guard.retry_backoff_ms)},
    {"guard", "max_point_mb", kInt, {0, 1048576}, "0",
     PSYNC_FIELD(spec->guard.max_point_mb)},
    {"machine", "processors", kInt, {1, 4096}, "16",
     PSYNC_FIELD(machine->processors), true},
    {"machine", "rows", kInt, {1, 65536}, "64", PSYNC_MATRIX(matrix_rows),
     true},
    {"machine", "cols", kInt, {1, 65536}, "64", PSYNC_MATRIX(matrix_cols),
     true},
    {"machine", "blocks", kInt, {1, 512}, "1",
     PSYNC_FIELD(machine->delivery_blocks), true, kBlocksKnobAlias,
     "fig11's 1024-point model needs two points per block"},
    {"machine", "waveguide_gbps", kDouble, {1, 1000}, "320",
     PSYNC_FIELD(machine->waveguide_gbps), true, nullptr,
     "the integer-picosecond clock cannot hold faster bit periods"},
    {"machine", "bus_length_cm", kDouble, {0.1, 100}, "8",
     PSYNC_FIELD(machine->bus_length_cm), true},
    {"machine", "dram_row_switch_cycles", kInt, {0, 100000}, "0",
     PSYNC_FIELD(machine->head.dram.row_switch_cycles)},
    {"mesh", "grid", kInt, {1, 64}, "4", PSYNC_FIELD(mesh->grid), true},
    {"mesh", "t_p", kInt, {0, 1024}, "1",
     PSYNC_FIELD(mesh->mi.reorder_cycles_per_element), true},
    {"mesh", "elements_per_packet", kInt, {1, 1024}, "32",
     PSYNC_FIELD(mesh->elements_per_packet), true},
    {"mesh", "overlap_stages", kBool, {}, "false",
     PSYNC_FIELD(mesh->mi.overlap_stages)},
    {"mesh", "buffer_depth", kInt, {1, 255}, "2",
     PSYNC_FIELD(mesh->net.buffer_depth), false, nullptr,
     "the mesh packs FIFO occupancy into a byte"},
    {"mesh", "virtual_channels", kInt, {1, 16}, "1",
     PSYNC_FIELD(mesh->net.virtual_channels), true, nullptr,
     "the mesh packs per-VC credits into bytes"},
    {"mesh", "dram_row_switch_cycles", kInt, {0, 100000}, "0",
     PSYNC_FIELD(mesh->mi.dram.row_switch_cycles)},
    {"fault", "margin_db", kDouble, {-30, 30}, nullptr,
     [](const Target& t, const std::string& v) {
       // Only the base BER moves; lanes, seed and profile stay.
       t.machine->fault.random_ber =
           reliability::FaultModel::from_margin_db(parse_double(v).value()).random_ber;
     },
     nullptr, true, nullptr, "sets random_ber; the BER saturates outside"},
    {"fault", "random_ber", kDouble, {0, 1}, nullptr,
     PSYNC_FIELD(machine->fault.random_ber)},
    {"fault", "seed", kInt, {0, kInt64Max}, "1",
     PSYNC_FIELD(machine->fault.seed)},
    {"fault", "dead_wavelengths", kIntList, {0, 63}, "",
     [](const Target& t, const std::string& v) {
       auto& lanes = t.machine->fault.dead_wavelengths;
       lanes.clear();
       std::istringstream in(v);
       for (std::uint32_t lane = 0; in >> lane;) lanes.push_back(lane);
     },
     nullptr},
    {"fault", "drift_ber_per_mword", kDouble, {0, 1}, "0",
     PSYNC_FIELD(machine->fault.drift_ber_per_mword), true},
    {"fault", "brownout_start_word", kInt, {0, kInt64Max}, "0",
     PSYNC_FIELD(machine->fault.brownout_start_word)},
    {"fault", "brownout_words", kInt, {0, kInt64Max}, "0",
     PSYNC_FIELD(machine->fault.brownout_words)},
    {"fault", "brownout_ber", kDouble, {0, 1}, "0",
     PSYNC_FIELD(machine->fault.brownout_ber), true},
    {"reliability", "policy", kString, {}, "off",
     [](const Target& t, const std::string& v) {
       t.machine->reliability.policy = reliability::policy_from_string(v);
     },
     nullptr},
    {"reliability", "block_words", kInt, {1, 4096}, "64",
     PSYNC_FIELD(machine->reliability.block_words)},
    {"reliability", "max_retries", kInt, {0, 64}, "4",
     PSYNC_FIELD(machine->reliability.max_retries)},
    {"reliability", "backoff_slots", kInt, {0, 4096}, "8",
     PSYNC_FIELD(machine->reliability.retry_backoff_slots)},
    {"reliability", "spare_lanes", kInt, {0, 63}, "4",
     PSYNC_FIELD(machine->reliability.spare_lanes)},
    {"reliability", "training_words", kInt, {0, 4096}, "16",
     PSYNC_FIELD(machine->reliability.training_words)},
    // Knob only: the fig13 workload reads it from the point's knob list.
    {"sweep", kCoresKnob, kInt, {1, 65536}, nullptr, nullptr, nullptr, true},
};

#undef PSYNC_FIELD
#undef PSYNC_TEXT
#undef PSYNC_MATRIX

std::vector<double> parse_values(const std::string& list) {
  std::vector<double> out;
  std::istringstream in(list);
  double v = 0.0;
  while (in >> v) out.push_back(v);
  return out;
}

}  // namespace

const std::vector<ConfigKey>& config_keys() { return kKeys; }

const ConfigKey* find_knob(const std::string& knob) {
  for (const auto& key : kKeys) {
    if ((key.knob && knob == key.name) ||
        (key.alias != nullptr && knob == key.alias)) {
      return &key;
    }
  }
  return nullptr;
}

std::string value_error(const ConfigKey& key, double value) {
  if (ConfigSchema::admits(key.type, key.range, value)) return {};
  std::ostringstream os;
  os << key.section << '.' << key.name << ": expected "
     << ConfigSchema::describe(key.type, key.range) << ", got " << value;
  return os.str();
}

bool apply_knob(const std::string& knob, double value,
                core::PsyncMachineParams* machine,
                core::MeshMachineParams* mesh) {
  const ConfigKey* key = find_knob(knob);
  if (key == nullptr) return false;
  if (const auto error = value_error(*key, value); !error.empty()) {
    throw ConfigError(error);
  }
  if (key->set != nullptr) {
    char text[32];  // %.17g round-trips the admitted double exactly
    std::snprintf(text, sizeof(text), "%.17g", value);
    key->set({machine, mesh, nullptr}, text);
  }
  return true;
}

ConfigError empty_axis_error(const std::string& knob) {
  return ConfigError("sweep axis '" + knob + "' has no values");
}

std::vector<std::string> known_knobs() {
  std::vector<std::string> out;
  for (const auto& key : kKeys) {
    if (key.knob) out.emplace_back(key.name);
    if (key.alias != nullptr) out.emplace_back(key.alias);
  }
  return out;
}

ExperimentSpec spec_from_config(const IniConfig& cfg) {
  static const ConfigSchema schema = sim_config_schema();
  for (const auto& d : schema.validate(cfg)) {
    if (d.kind == ConfigDiagnostic::Kind::kBadValue) {
      throw ConfigError(d.to_string());
    }
  }
  ExperimentSpec spec;
  const Target target{&spec.machine, &spec.mesh, &spec};
  for (const auto& key : kKeys) {
    const auto text = cfg.get(key.section, key.name);
    if (key.set == nullptr || (!text && key.fallback == nullptr)) continue;
    key.set(target, text ? *text : key.fallback);
  }
  spec.with_mesh = cfg.has_section("mesh");

  if (spec.workload == "sweep") {
    // Legacy single-knob sweep of the 2D FFT machine.
    spec.workload = cfg.get_string("experiment", "workload", "fft2d");
    spec.verify = cfg.get_bool("experiment", "verify", false);
    const std::string vary =
        cfg.get_string("experiment", "vary", "processors");
    const auto values =
        parse_values(cfg.get_string("experiment", "values", ""));
    if (!values.empty()) spec.axes.push_back({vary, values});
  } else if (spec.workload == "reliability_sweep") {
    spec.workload = "reliability";
    const auto margins =
        parse_values(cfg.get_string("experiment", "margins_db", ""));
    if (margins.empty()) {
      throw ConfigError("reliability_sweep: missing 'margins_db' list");
    }
    spec.axes.push_back({"margin_db", margins});
  }

  // Multi-knob grid: every key in [sweep] is an axis, in file order.
  for (const auto& knob : cfg.keys("sweep")) {
    const auto values = parse_values(cfg.get_string("sweep", knob, ""));
    if (values.empty()) {
      throw empty_axis_error(knob);
    }
    spec.axes.push_back({knob, values});
  }
  return spec;
}

ConfigSchema sim_config_schema() {
  ConfigSchema s;
  for (const auto& key : kKeys) {
    s.key(key.section, key.name, key.type, key.range);
    for (const char* knob : {key.knob ? key.name : nullptr, key.alias}) {
      if (knob != nullptr) s.key("sweep", knob, kDoubleList, key.range);
    }
  }
  return s;
}

}  // namespace psync::driver
