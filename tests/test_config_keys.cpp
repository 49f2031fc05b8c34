// The psync_sim key table (driver::config_keys()): regression tests for the
// config probes that used to crash or silently misbehave, the mesh
// machine's typed packet-size errors, a seeded config fuzzer over every
// row (in process and through a serve submission), a digest pin for the
// shipped configs, and the docs/configuration.md cross-check.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/common/config.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/driver/experiment.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/driver/workload.hpp"
#include "rng_draws.hpp"
#include "serve_client.hpp"

namespace psync::driver {
namespace {

const std::string kRoot = PSYNC_SOURCE_ROOT;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `base` re-rendered with section.key = value (added when absent).
std::string with_key(const std::string& base, const std::string& section,
                     const std::string& key, const std::string& value) {
  const IniConfig cfg = IniConfig::parse(base);
  std::vector<std::string> sections = cfg.sections();
  if (!cfg.has_section(section)) sections.push_back(section);
  std::string out;
  for (const auto& sec : sections) {
    out += "[" + sec + "]\n";
    for (const auto& k : cfg.keys(sec)) {
      if (sec == section && k == key) continue;
      out += k + " = " + *cfg.get(sec, k) + "\n";
    }
    if (sec == section) out += key + " = " + value + "\n";
  }
  return out;
}

/// spec_from_config on transpose_table3.ini with one key changed must
/// throw a ConfigError whose message names section.key.
void expect_probe_rejected(const std::string& section, const std::string& key,
                           const std::string& value) {
  const std::string text =
      with_key(read_file(kRoot + "/configs/transpose_table3.ini"), section,
               key, value);
  try {
    (void)spec_from_config(IniConfig::parse(text));
    ADD_FAILURE() << section << "." << key << " = " << value
                  << " was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(section + "." + key),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// The probes: each used to crash psync_sim or run a different experiment.

// Was SIGFPE (exit 136): `% elements_per_packet` in the mesh machine.
TEST(ConfigProbe, ZeroElementsPerPacketIsAConfigError) {
  expect_probe_rejected("mesh", "elements_per_packet", "0");
}

// Was a PSYNC_CHECK abort (exit 134): -3 wrapped to 2^32-3.
TEST(ConfigProbe, NegativeElementsPerPacketIsAConfigError) {
  expect_probe_rejected("mesh", "elements_per_packet", "-3");
}

// Was sim_diverged: -1 wrapped to 2^32-1 reorder cycles per element.
TEST(ConfigProbe, NegativeTpIsAConfigError) {
  expect_probe_rejected("mesh", "t_p", "-1");
}

// Was exit 0 with a different experiment (256 elements, 1554 cycles).
TEST(ConfigProbe, NegativeGridIsAConfigError) {
  expect_probe_rejected("mesh", "grid", "-1");
}

// Was exit 0 printing "-1 cycles".
TEST(ConfigProbe, ZeroTransposeElementsIsAConfigError) {
  expect_probe_rejected("experiment", "elements", "0");
}

// Was accepted silently as SIZE_MAX retries.
TEST(ConfigProbe, NegativeGuardRetriesIsAConfigError) {
  expect_probe_rejected("guard", "max_retries", "-1");
}

// Was accepted silently as a 2^64-2 thread pool cap.
TEST(ConfigProbe, NegativeThreadsIsAConfigError) {
  expect_probe_rejected("experiment", "threads", "-2");
}

// ---------------------------------------------------------------------------
// Packet sizes the single-key ranges cannot see

TEST(MeshMachineConfig, PacketSizeThatSplitsABlockIsAConfigError) {
  core::MeshMachineParams p;
  p.grid = 2;
  p.matrix_rows = 16;
  p.matrix_cols = 16;
  p.elements_per_packet = 0;
  EXPECT_THROW(core::MeshMachine{p}, ConfigError);
  p.elements_per_packet = 64;  // each processor holds 4 x 16 = 64 words
  EXPECT_NO_THROW(core::MeshMachine{p});
  p.elements_per_packet = 48;
  EXPECT_THROW(core::MeshMachine{p}, ConfigError);

  p.elements_per_packet = 8;
  core::MeshMachine m(p);
  EXPECT_THROW((void)m.run_transpose_writeback(12), ConfigError);
  EXPECT_THROW((void)m.run_transpose_writeback(0), ConfigError);
  EXPECT_THROW((void)m.run_transpose_writeback_multiport(8, 2), ConfigError);
  EXPECT_EQ(m.run_transpose_writeback(16).elements, 64u);
}

// elements = 96 is a multiple of 8 and 32 but not of 64: that point alone
// fails as config_invalid and the sweep carries on.
TEST(MeshMachineConfig, SweepOverANonDivisorPacketSizeFailsOnlyThatPoint) {
  const std::string text =
      with_key(with_key(read_file(kRoot + "/configs/transpose_table3.ini"),
                        "experiment", "elements", "96"),
               "sweep", "elements_per_packet", "8 32 64");
  const SweepResult result =
      Session().run(spec_from_config(IniConfig::parse(text)));
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0].status, PointStatus::kOk);
  EXPECT_EQ(result.records[1].status, PointStatus::kOk);
  EXPECT_EQ(metric(result.records[1], "elements"), 64.0 * 96.0);
  const auto& bad = result.records[2];
  EXPECT_EQ(bad.status, PointStatus::kFailed);
  ASSERT_TRUE(bad.failure.has_value());
  EXPECT_EQ(bad.failure->kind, FailureKind::kConfigInvalid);
  EXPECT_EQ(result.campaign.ok, 2u);
}

// ---------------------------------------------------------------------------
// The table itself

TEST(ConfigKeys, EveryFallbackIsAdmittedAndWritingThemChangesNothing) {
  std::string text;
  std::string section;
  for (const auto& key : config_keys()) {
    // An empty list cannot be written out; it is the absent key.
    if (key.set == nullptr || key.fallback == nullptr || !*key.fallback) {
      continue;
    }
    if (section != key.section) {
      section = key.section;
      text += "[" + section + "]\n";
    }
    text += std::string(key.name) + " = " + key.fallback + "\n";
  }
  const IniConfig cfg = IniConfig::parse(text);
  EXPECT_TRUE(sim_config_schema().validate(cfg).empty());
  EXPECT_EQ(spec_from_config(cfg).canonical_json(),
            spec_from_config(IniConfig::parse("[mesh]\n")).canonical_json());
  EXPECT_TRUE(Session::validate(ExperimentSpec{}).empty());
}

TEST(ConfigKeys, KnobsAndSchemaComeFromTheTable) {
  std::size_t knobs = 0;
  const ConfigSchema schema = sim_config_schema();
  for (const auto& key : config_keys()) {
    for (const char* knob : {key.knob ? key.name : nullptr, key.alias}) {
      if (knob == nullptr) continue;
      ++knobs;
      EXPECT_EQ(find_knob(knob), &key);
      // A one-value [sweep] axis outside the row is a schema diagnostic.
      const auto diags = schema.validate(IniConfig::parse(
          "[sweep]\n" + std::string(knob) + " = " +
          std::to_string(key.range.hi + 1) + "\n"));
      EXPECT_EQ(diags.size(), 1u) << knob;
    }
  }
  EXPECT_EQ(known_knobs().size(), knobs);
  EXPECT_EQ(find_knob("warp_factor"), nullptr);
}

// spec_digest of every shipped config, computed before the key table
// existed: journals and the serve result cache are keyed by these, and a
// table default that drifts from the old fallback changes one of them.
TEST(ConfigKeys, DigestsOfTheShippedConfigsArePinned) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"fault_smoke.ini", 0x512f6595bcb4fe75ULL},
      {"fft1d_four_step.ini", 0x253114e6a2604b0cULL},
      {"fft2d_paper_scale.ini", 0x4842525bd3a15f9eULL},
      {"reliability_cliff.ini", 0x3ec9df0341300aa2ULL},
      {"streaming.ini", 0xfa5d6a89b7128a47ULL},
      {"sweep_grid_k_x_p.ini", 0x719239a1a010c407ULL},
      {"sweep_processors.ini", 0x36e44df2e005787aULL},
      {"thermal_drift.ini", 0x3c2361c2ba6266deULL},
      {"transpose_table3.ini", 0x2c395a399cdbf731ULL},
  };
  std::size_t seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(kRoot + "/configs")) {
    if (entry.path().extension() != ".ini") continue;
    const std::string name = entry.path().filename().string();
    const auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << name << " has no pinned digest";
    EXPECT_EQ(spec_digest(spec_from_config(IniConfig::load(entry.path()))),
              it->second)
        << name;
    ++seen;
  }
  EXPECT_EQ(seen, pinned.size());
}

// docs/configuration.md is the table, row for row. On a mismatch the
// expected rows are printed, ready to paste.
std::string doc_row(const ConfigKey& key) {
  const std::string described = ConfigSchema::describe(key.type, key.range);
  const auto in = described.find(" in ");
  std::string knob = "—";
  if (key.knob) knob = std::string("`") + key.name + "`";
  if (key.alias != nullptr) knob += std::string(", `") + key.alias + "`";
  std::string fallback = "—";
  if (key.fallback != nullptr) {
    fallback = *key.fallback == '\0' ? "(empty)"
                                     : std::string("`") + key.fallback + "`";
  }
  return std::string("| ") + key.section + " | `" + key.name + "` | " +
         ConfigSchema::describe(key.type, {}) + " | " +
         (in == std::string::npos ? "—" : described.substr(in + 4)) + " | " +
         fallback + " | " + knob + " | " + (key.note ? key.note : "—") + " |";
}

TEST(ConfigKeys, DocumentationListsEveryKeyWithItsRange) {
  std::vector<std::string> expected;
  for (const auto& key : config_keys()) expected.push_back(doc_row(key));
  std::vector<std::string> documented;
  std::istringstream in(read_file(kRoot + "/docs/configuration.md"));
  std::string line;
  while (std::getline(in, line)) {
    // Key rows are the table lines whose second cell is a `key`.
    if (line.rfind("| ", 0) == 0 && line.find(" | `") != std::string::npos) {
      documented.push_back(line);
    }
  }
  std::string table;
  for (const auto& row : expected) table += row + "\n";
  EXPECT_TRUE(documented == expected) << "expected key rows:\n" << table;
}

// ---------------------------------------------------------------------------
// ConfigFuzz: every row, one key at a time, at and around its bounds.

/// Runs the fuzz inputs in a scratch working directory, so a fuzzed
/// `journal` path lands there.
class ScopedCwd {
 public:
  explicit ScopedCwd(const std::filesystem::path& dir)
      : old_(std::filesystem::current_path()) {
    std::filesystem::create_directories(dir);
    std::filesystem::current_path(dir);
  }
  ~ScopedCwd() {
    std::error_code ec;
    std::filesystem::current_path(old_, ec);
  }
  ScopedCwd(const ScopedCwd&) = delete;
  ScopedCwd& operator=(const ScopedCwd&) = delete;

 private:
  std::filesystem::path old_;
};

std::string number_text(double v) {
  char buf[40];
  if (std::fabs(v) < 9e15 && v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// lo-1, lo, hi, hi+1 (finite bounds only), 0, -1, 2^63, a fractional
/// value (integer types) and non-numeric text.
std::vector<std::string> fuzz_values(const ConfigKey& key, Rng& rng) {
  using Type = ConfigSchema::Type;
  std::vector<std::string> out;
  for (const double b : {key.range.lo - 1, key.range.lo, key.range.hi,
                         key.range.hi + 1}) {
    if (std::isfinite(b)) out.push_back(number_text(b));
  }
  if (std::isfinite(key.range.hi) && key.range.hi >= 9.2e18) {
    // The int64 ceiling, exactly.
    out[out.size() - 2] = "9223372036854775807";
    out.back() = "9223372036854775808";
  }
  out.insert(out.end(), {"0", "-1", "9223372036854775808"});
  if (key.type == Type::kInt || key.type == Type::kIntList) {
    const double lo = std::isfinite(key.range.lo) ? key.range.lo : 0.0;
    out.push_back(number_text(lo + 0.25 + 0.5 * rng.next_double()));
  }
  const char* garbage[] = {"abc", "1x", "--", "0x", "nan", "inf", "1e999"};
  out.push_back(garbage[next_below(rng, std::size(garbage))]);
  return out;
}

/// Ok, or a typed failure: ConfigError anywhere up to the run,
/// config_invalid or oom_estimate_exceeded per point. Counts the points
/// that ran clean in `*ok`.
std::string run_in_process(const std::string& text, std::size_t* ok) {
  try {
    const ExperimentSpec spec = spec_from_config(IniConfig::parse(text));
    (void)Session::freeze(spec);
    const SweepResult result = Session().run(spec);
    for (const auto& rec : result.records) {
      if (rec.status == PointStatus::kOk) {
        ++*ok;
        continue;
      }
      if (!rec.failure.has_value()) return "failed point without a failure";
      const FailureKind kind = rec.failure->kind;
      if (kind != FailureKind::kConfigInvalid &&
          kind != FailureKind::kOomEstimateExceeded) {
        return std::string(to_string(kind)) + ": " + rec.failure->message;
      }
    }
  } catch (const ConfigError&) {
  } catch (const std::exception& e) {
    return std::string("untyped error: ") + e.what();
  }
  return {};
}

/// The same text as a serve submission: ok (the campaign then finishes
/// with no forbidden failure) or an invalid_spec reply.
std::string run_served(serve::Client& client, const std::string& text) {
  const std::string reply = client.round_trip(serve::submit_frame(text));
  std::string code;
  if (serve::find_string_field(reply, "error", &code)) {
    return code == "invalid_spec" ? "" : "submit: " + reply;
  }
  std::string id;
  if (!serve::find_string_field(reply, "campaign", &id)) {
    return "submit: " + reply;
  }
  const std::string results = serve::await_results(client, id);
  for (const char* bad : {"sim_diverged", "timeout", "internal_error",
                          "not_finished", "campaign_failed"}) {
    if (results.find(bad) != std::string::npos) return "results: " + results;
  }
  return {};
}

// Small bases: the fft2d flow on both machines, the Table III transpose
// and the two analysis sweeps. The admission gate keeps oversized rows
// from running.
constexpr const char* kFuzzBases[] = {
    "[experiment]\nkind = fig11\n[guard]\nmax_point_mb = 1\n",
    "[experiment]\nkind = fig13\n[guard]\nmax_point_mb = 1\n",
    "[experiment]\nkind = fft2d\n[machine]\nprocessors = 4\nrows = 16\n"
    "cols = 16\n[mesh]\ngrid = 2\nelements_per_packet = 4\n"
    "[guard]\nmax_point_mb = 1\n",
    "[experiment]\nkind = transpose\nelements = 32\n[machine]\nrows = 16\n"
    "cols = 16\n[mesh]\ngrid = 2\nelements_per_packet = 8\n"
    "[guard]\nmax_point_mb = 1\n",
};

TEST(ConfigFuzz, EveryKeyEndsOkOrInATypedError) {
  Rng rng(20260417);
  serve::DaemonFixture daemon("config_fuzz", /*with_cache=*/false);
  serve::Client client(daemon.socket_path);
  ASSERT_TRUE(client.connected());
  const ScopedCwd cwd(serve::temp_path("config_fuzz_cwd"));

  std::size_t inputs = 0;
  std::size_t ok = 0;
  for (const char* base : kFuzzBases) {
    for (const auto& key : config_keys()) {
      // An ini key in its own section and, for knobs, a one-value axis.
      std::vector<std::pair<std::string, std::string>> slots;
      if (std::string(key.section) != "sweep") {
        slots.emplace_back(key.section, key.name);
      }
      for (const char* knob : {key.knob ? key.name : nullptr, key.alias}) {
        if (knob != nullptr) slots.emplace_back("sweep", knob);
      }
      for (const auto& [section, name] : slots) {
        for (const auto& value : fuzz_values(key, rng)) {
          const std::string text = with_key(base, section, name, value);
          const std::string local = run_in_process(text, &ok);
          EXPECT_EQ(local, "") << text;
          const std::string served = run_served(client, text);
          EXPECT_EQ(served, "") << text;
          ++inputs;
        }
      }
    }
  }
  EXPECT_GT(inputs, 1600u);
  EXPECT_GT(ok, 200u);  // in-range values really run
}

}  // namespace
}  // namespace psync::driver
