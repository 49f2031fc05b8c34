// The lint engine: file discovery, per-file and cross-file rule
// execution, suppression accounting, and report rendering.
//
// Suppression syntax, modeled on NOLINT but with a mandatory audit trail:
//
//   // psync-lint: allow(<rule-id>): <one-line reason>
//
// A suppression silences findings of that rule on its own line or the
// line directly below (so it works both trailing and comment-above); a
// finding about a whole file (line 0, e.g. dead-module) is silenced by an
// allow() of its rule anywhere in that file. A suppression without a
// reason, naming an unknown rule, or silencing nothing is itself a
// finding — allowances must stay justified and live.
#pragma once

#include <string>
#include <vector>

#include "psync/lintpass/finding.hpp"
#include "psync/lintpass/layers.hpp"
#include "psync/lintpass/policy.hpp"

namespace psync::lintpass {

/// Lint one in-memory file. `rel_path` drives the policy tables; content
/// is lexed here. Lex failures append a "lex-error" finding and bump
/// report->parse_failures instead of throwing. Only the per-file rules
/// run, so an allow() of a cross-file rule reads as unused here.
void lint_file(const std::string& rel_path, const std::string& content,
               const Policy& policy, const LayerGraph& layers,
               Report* report);

/// One in-memory file of a tree, under its repo-relative path.
struct SourceFile {
  std::string rel_path;
  std::string content;
};

/// Lint a whole tree: every file as lint_file does, plus the cross-file
/// rules (dead-module) over all of them, before suppressions are matched.
void lint_tree(const std::vector<SourceFile>& files, const Policy& policy,
               const LayerGraph& layers, Report* report);

/// The scan set: every TU from the compilation database that lives under
/// a first-party root, plus every header found by walking those roots —
/// headers never appear in a compilation database but carry most of the
/// hygiene and unordered-container surface. Absolute paths, sorted.
std::vector<std::string> discover_files(
    const std::string& repo_root, const std::vector<std::string>& tu_paths);

/// Read every file (absolute paths) and lint them as one tree against
/// one policy and layer DAG. Files outside `repo_root` or outside the
/// scan policy are skipped.
Report run_lint(const std::string& repo_root,
                const std::vector<std::string>& abs_files,
                const Policy& policy, const LayerGraph& layers);

std::string render_text(const Report& report);
std::string render_json(const Report& report);

}  // namespace psync::lintpass
