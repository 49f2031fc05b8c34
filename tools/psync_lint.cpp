// psync_lint — the project-specific determinism & layering analyzer.
//
// Reads compile_commands.json, lexes every first-party translation unit
// and header, and enforces the rule families in src/psync/lintpass/:
// determinism (no wall clock, no ambient randomness, no pointer
// formatting, no hash-ordered containers on serialization paths),
// layering (the include graph must stay inside tools/lint_layers.txt),
// hygiene (#pragma once, header using-directives, assert side effects on
// durability paths), and reachability (every src/psync header is reached
// from a tools/ or bench/ TU). See docs/static_analysis.md for the rule
// catalog and the suppression audit policy.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "psync/lintpass/compile_db.hpp"
#include "psync/lintpass/engine.hpp"
#include "psync/lintpass/layers.hpp"
#include "psync/lintpass/policy.hpp"
#include "psync/lintpass/rules.hpp"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParseFailure = 3;

void print_usage(std::ostream& out) {
  out << "usage: psync_lint [options] <build-dir | compile_commands.json>\n"
         "\n"
         "Static determinism/layering/hygiene/reachability analysis over\n"
         "every first-party translation unit and header.\n"
         "\n"
         "options:\n"
         "  --json          machine-readable report on stdout\n"
         "  --layers FILE   layer DAG (default: <root>/tools/lint_layers.txt)\n"
         "  --root DIR      repo root (default: inferred from the database)\n"
         "  --list-rules    print the rule catalog and exit\n"
         "  --help          this text\n"
         "\n"
         "exit codes:\n"
         "  0  clean (suppressed, audited findings are allowed)\n"
         "  1  unsuppressed findings\n"
         "  2  usage error\n"
         "  3  parse failure (bad database, layer file, or untokenizable "
         "source)\n"
         "\n"
         "suppression syntax (counted, reported, reason mandatory):\n"
         "  // psync-lint: allow(<rule-id>): <reason>\n";
}

std::string read_file(const std::string& path, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot read " + path;
    return "";
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  namespace lp = psync::lintpass;
  bool json = false;
  std::string layers_path;
  std::string root;
  std::string db_arg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return kExitClean;
    }
    if (arg == "--list-rules") {
      for (const auto& r : lp::rule_catalog()) {
        std::cout << r.id << "\n    " << r.summary << "\n    fix: " << r.hint
                  << "\n";
      }
      return kExitClean;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg == "--layers" && i + 1 < argc) {
      layers_path = argv[++i];
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "psync_lint: unknown option " << arg << "\n";
      print_usage(std::cerr);
      return kExitUsage;
    } else if (db_arg.empty()) {
      db_arg = arg;
    } else {
      std::cerr << "psync_lint: more than one database argument\n";
      print_usage(std::cerr);
      return kExitUsage;
    }
  }
  if (db_arg.empty()) {
    print_usage(std::cerr);
    return kExitUsage;
  }

  std::string db_path = db_arg;
  if (std::filesystem::is_directory(db_path)) {
    db_path += "/compile_commands.json";
  }

  std::string err;
  const std::string db_text = read_file(db_path, &err);
  if (!err.empty()) {
    std::cerr << "psync_lint: " << err << "\n";
    return kExitUsage;
  }

  std::vector<std::string> tus;
  try {
    tus = lp::compile_db_files(db_text);
  } catch (const lp::CompileDbError& e) {
    std::cerr << "psync_lint: " << e.what() << "\n";
    return kExitParseFailure;
  }

  if (root.empty()) root = lp::infer_repo_root(tus);
  if (root.empty()) {
    std::cerr << "psync_lint: cannot infer repo root from " << db_path
              << " (no entry under src/psync/); pass --root\n";
    return kExitUsage;
  }

  if (layers_path.empty()) layers_path = root + "/tools/lint_layers.txt";
  const std::string layers_text = read_file(layers_path, &err);
  if (!err.empty()) {
    std::cerr << "psync_lint: " << err << "\n";
    return kExitUsage;
  }
  lp::LayerGraph layers;
  try {
    layers = lp::LayerGraph::parse(layers_text);
  } catch (const std::exception& e) {
    std::cerr << "psync_lint: " << layers_path << ": " << e.what() << "\n";
    return kExitParseFailure;
  }

  const lp::Policy policy;
  const auto files = lp::discover_files(root, tus);
  const lp::Report report = lp::run_lint(root, files, policy, layers);

  std::cout << (json ? lp::render_json(report) : lp::render_text(report));

  if (report.parse_failures > 0) return kExitParseFailure;
  return report.findings.empty() ? kExitClean : kExitFindings;
}
