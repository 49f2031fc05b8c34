// The psync_lint rule registry.
//
// Three per-file families, all motivated by the repo's byte-identity
// guarantees (parallel==serial sweeps, kill/resume, crash-identical dist
// merges), plus one cross-file rule:
//
//   determinism  det-wall-clock, det-rand, det-pointer-format,
//                det-unordered — ambient time, ambient randomness,
//                address-dependent formatting, and hash-order iteration
//                are the four ways a result-determining path goes
//                non-reproducible without any test noticing.
//   layering     layer-violation, layer-unknown-module,
//                layer-relative-include — the include graph must stay
//                inside the frozen DAG in tools/lint_layers.txt — and
//                sans-io-include: the sweep leader's policy includes no
//                POSIX, socket, process, clock or thread header.
//   hygiene      hyg-pragma-once, hyg-using-namespace,
//                hyg-assert-side-effect — include guards, header
//                namespace leaks, and NDEBUG-vanishing side effects on
//                durability paths.
//   reachability dead-module — every src/psync header must be reached
//                from a tools/ or bench/ TU through "psync/..." includes.
//
// Rules see the token stream (never raw text), so string literals and
// comments cannot fire them.
#pragma once

#include <string>
#include <vector>

#include "psync/lintpass/finding.hpp"
#include "psync/lintpass/layers.hpp"
#include "psync/lintpass/lexer.hpp"
#include "psync/lintpass/policy.hpp"

namespace psync::lintpass {

/// One scanned file, pre-lexed, with the repo-relative path the policy
/// tables key on.
struct FileContext {
  std::string rel_path;
  std::vector<Token> tokens;
  bool is_header = false;
};

/// Catalog entry, for --list-rules and the docs.
struct RuleInfo {
  const char* id;
  const char* summary;
  const char* hint;
};

/// Every shipped rule, in stable display order.
const std::vector<RuleInfo>& rule_catalog();

/// True if `id` names a shipped rule (valid in an allow() suppression).
bool known_rule(const std::string& id);

/// Run every applicable rule over one file. Findings are appended in
/// source order; suppressions are NOT applied here (the engine does that,
/// so tests can see raw rule behavior).
void run_rules(const FileContext& ctx, const Policy& policy,
               const LayerGraph& layers, std::vector<Finding>* out);

/// Run the cross-file rules (dead-module) over the whole scanned tree.
/// Their findings concern a file as a whole and carry line 0.
void run_tree_rules(const std::vector<FileContext>& files,
                    const Policy& policy, std::vector<Finding>* out);

}  // namespace psync::lintpass
