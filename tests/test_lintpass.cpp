// psync_lint rule coverage: every shipped rule has at least one firing
// and one non-firing fixture under tests/lint_fixtures/, plus the
// suppression machinery, the string/comment false-positive guarantee,
// the layer-DAG freeze (including the acceptance-criteria synthetic
// dist/ -> serve/ include), the lexer's literal handling, and the
// compile_commands.json reader. The cross-file dead-module rule is tested
// on mini in-memory trees instead of fixtures.
//
// Fixtures are linted under *pretend* repo-relative paths so the policy
// tables (allowlists, order-sensitive modules) can be exercised without
// touching real tree files.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "psync/lintpass/compile_db.hpp"
#include "psync/lintpass/engine.hpp"
#include "psync/lintpass/layers.hpp"
#include "psync/lintpass/lexer.hpp"
#include "psync/lintpass/policy.hpp"
#include "psync/lintpass/rules.hpp"

namespace lp = psync::lintpass;

namespace {

std::string fixture_path(const std::string& name) {
  return std::string(PSYNC_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const lp::LayerGraph& real_layers() {
  static const lp::LayerGraph g = lp::LayerGraph::parse(
      read_file(std::string(PSYNC_SOURCE_ROOT) + "/tools/lint_layers.txt"));
  return g;
}

const lp::LayerGraph& mini_layers() {
  static const lp::LayerGraph g =
      lp::LayerGraph::parse(read_file(fixture_path("mini_layers.txt")));
  return g;
}

/// Lint one fixture as if it lived at `pretend_path` in the repo.
lp::Report lint_fixture(const std::string& fixture,
                        const std::string& pretend_path,
                        const lp::LayerGraph& layers = real_layers()) {
  lp::Report report;
  lp::lint_file(pretend_path, read_file(fixture_path(fixture)),
                lp::Policy{}, layers, &report);
  return report;
}

int count_rule(const lp::Report& r, const std::string& rule) {
  int n = 0;
  for (const auto& f : r.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// ------------------------------------------------------------ det-rand

TEST(LintDetRand, FiresOnAmbientRandomness) {
  const auto r =
      lint_fixture("det_rand_fires.cpp", "src/psync/core/fixture.cpp");
  EXPECT_EQ(count_rule(r, "det-rand"), 3);  // random_device, rand, std::rand
}

TEST(LintDetRand, StringsAndCommentsDoNotFire) {
  const auto r = lint_fixture("det_rand_string_clean.cpp",
                              "src/psync/core/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

// ------------------------------------------------------- det-wall-clock

TEST(LintDetWallClock, FiresOutsideAllowlist) {
  const auto r =
      lint_fixture("det_clock_fires.cpp", "src/psync/core/fixture.cpp");
  EXPECT_EQ(count_rule(r, "det-wall-clock"), 2);  // steady_clock, time()
}

TEST(LintDetWallClock, AllowlistedModuleIsQuiet) {
  // The same wall-clock-reading code under perf/ (timing is its job).
  const auto r =
      lint_fixture("det_clock_fires.cpp", "src/psync/perf/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintDetWallClock, MembersAndOtherNamespacesDoNotFire) {
  const auto r =
      lint_fixture("det_clock_clean.cpp", "src/psync/core/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintDetWallClock, TestsAreOutOfScope) {
  const auto r =
      lint_fixture("det_clock_fires.cpp", "tests/test_fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

// --------------------------------------------------- det-pointer-format

TEST(LintDetPointerFormat, FiresOnAddressFormatting) {
  const auto r =
      lint_fixture("det_ptr_fires.cpp", "src/psync/core/fixture.cpp");
  // "%p" format string, static_cast<const void*> stream, (void*) stream.
  EXPECT_EQ(count_rule(r, "det-pointer-format"), 3);
}

TEST(LintDetPointerFormat, IdsAndShiftsDoNotFire) {
  const auto r =
      lint_fixture("det_ptr_clean.cpp", "src/psync/core/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

// -------------------------------------------------------- det-unordered

TEST(LintDetUnordered, FiresInOrderSensitiveModule) {
  const auto r = lint_fixture("det_unordered_fires.cpp",
                              "src/psync/dist/merge_fixture.cpp");
  EXPECT_EQ(count_rule(r, "det-unordered"), 1);  // the declaration
}

TEST(LintDetUnordered, QuietOutsideSensitiveModules) {
  const auto r = lint_fixture("det_unordered_fires.cpp",
                              "src/psync/mesh/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintDetUnordered, OrderedContainerIsClean) {
  const auto r = lint_fixture("det_unordered_clean.cpp",
                              "src/psync/dist/merge_fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

// ---------------------------------------------------------- suppression

TEST(LintSuppression, AuditedAllowSilencesAndIsCounted) {
  const auto r = lint_fixture("det_unordered_suppressed.cpp",
                              "src/psync/dist/merge_fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rule, "det-unordered");
  EXPECT_EQ(r.suppressions[0].uses, 1);
  EXPECT_FALSE(r.suppressions[0].reason.empty());
}

TEST(LintSuppression, UnusedAllowIsAFinding) {
  const auto r = lint_fixture("suppression_unused.cpp",
                              "src/psync/core/fixture.cpp");
  EXPECT_EQ(count_rule(r, "lint-unused-suppression"), 1);
  EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintSuppression, MissingReasonOrUnknownRuleIsAFinding) {
  const auto r =
      lint_fixture("suppression_bad.cpp", "src/psync/core/fixture.cpp");
  EXPECT_EQ(count_rule(r, "lint-bad-suppression"), 2);
  // The reasonless allow() must NOT suppress the real finding below it.
  EXPECT_EQ(count_rule(r, "det-rand"), 1);
}

TEST(LintSuppression, QuotedSyntaxInDocsDoesNotParse) {
  // A comment that *quotes* the directive (leading // inside the body,
  // as docs/static_analysis.md and the headers do) is not a directive.
  lp::Report r;
  lp::lint_file("src/psync/core/doc.cpp",
                "// example:\n"
                "//   // psync-lint: allow(not-a-rule): quoted\n"
                "int x;\n",
                lp::Policy{}, real_layers(), &r);
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

// ------------------------------------------------------------- layering

TEST(LintLayering, SyntheticDistToServeIncludeIsRejected) {
  const auto r =
      lint_fixture("layer_violation.cpp", "src/psync/dist/fixture.cpp");
  ASSERT_EQ(count_rule(r, "layer-violation"), 1);
  EXPECT_NE(r.findings[0].message.find("'dist' must not include 'serve'"),
            std::string::npos)
      << r.findings[0].message;
  // The daemon runs every campaign in-process, so serve -> dist is not an
  // edge of the DAG either.
  lp::Report daemon;
  lp::lint_file("src/psync/serve/fixture.cpp",
                "#include \"psync/dist/supervisor.hpp\"\n"
                "int use_dist();\n",
                lp::Policy{}, real_layers(), &daemon);
  ASSERT_EQ(count_rule(daemon, "layer-violation"), 1)
      << lp::render_text(daemon);
  EXPECT_NE(
      daemon.findings[0].message.find("'serve' must not include 'dist'"),
      std::string::npos)
      << daemon.findings[0].message;
}

TEST(LintLayering, AllowedEdgesPass) {
  const auto r =
      lint_fixture("layer_clean.cpp", "src/psync/dist/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintLayering, RelativeIncludeFires) {
  const auto r = lint_fixture("layer_relative_fires.cpp",
                              "src/psync/dist/fixture.cpp");
  EXPECT_EQ(count_rule(r, "layer-relative-include"), 1);
}

TEST(LintLayering, PosixHeadersInTheLeaderCoreAreRejected) {
  const auto r =
      lint_fixture("sans_io_fires.cpp", "src/psync/dist/leader.cpp");
  EXPECT_EQ(count_rule(r, "sans-io-include"), 9) << lp::render_text(r);
  EXPECT_EQ(r.findings.size(), 9u) << lp::render_text(r);
  const auto header =
      lint_fixture("sans_io_fires.cpp", "src/psync/dist/leader.hpp");
  EXPECT_EQ(count_rule(header, "sans-io-include"), 9);
  // The leader's clock use is already out: dist/leader* is not on the
  // wall-clock allowlist.
  EXPECT_EQ(count_rule(lint_fixture("det_clock_fires.cpp",
                                    "src/psync/dist/leader.cpp"),
                       "det-wall-clock"),
            2);
}

TEST(LintLayering, ThePosixAdapterMayIncludeThem) {
  const auto r =
      lint_fixture("sans_io_fires.cpp", "src/psync/dist/supervisor.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintLayering, PosixHeadersInTheWorkerLinkCoreAreRejected) {
  for (const char* path : {"src/psync/dist/link.cpp",
                           "src/psync/dist/link.hpp"}) {
    const auto r = lint_fixture("sans_io_link_fires.cpp", path);
    EXPECT_EQ(count_rule(r, "sans-io-include"), 5) << path << "\n"
                                                   << lp::render_text(r);
  }
  const auto r =
      lint_fixture("sans_io_link_fires.cpp", "src/psync/dist/link.cpp");
  EXPECT_EQ(r.findings.size(), 5u) << lp::render_text(r);
  // The worker's socket side may include them.
  const auto adapter =
      lint_fixture("sans_io_link_fires.cpp", "src/psync/dist/worker.cpp");
  EXPECT_TRUE(adapter.findings.empty()) << lp::render_text(adapter);
}

TEST(LintLayering, OnlyTheRealClockAdaptersOfDistMayReadTheClock) {
  // The transport is frame I/O and the heartbeat file a line codec: both
  // are off the wall-clock allowlist, and so is the link's policy.
  for (const char* path :
       {"src/psync/dist/transport.cpp", "src/psync/dist/heartbeat.cpp",
        "src/psync/dist/link.cpp"}) {
    EXPECT_EQ(count_rule(lint_fixture("det_clock_dist_fires.cpp", path),
                         "det-wall-clock"),
              2)
        << path;
  }
  for (const char* path :
       {"src/psync/dist/worker.cpp", "src/psync/dist/supervisor.cpp"}) {
    const auto r = lint_fixture("det_clock_dist_fires.cpp", path);
    EXPECT_TRUE(r.findings.empty()) << path << "\n" << lp::render_text(r);
  }
}

TEST(LintLayering, MiniDagRejectsUpwardAndUnknownEdges) {
  const auto r = lint_fixture("layer_mini_fires.cpp",
                              "src/psync/lower/fixture.cpp", mini_layers());
  EXPECT_EQ(count_rule(r, "layer-unknown-module"), 1);  // psync/ghost/
  EXPECT_EQ(count_rule(r, "layer-violation"), 1);       // lower -> upper
}

TEST(LintLayering, MiniDagAllowsDeclaredDownwardEdge) {
  const auto r = lint_fixture("layer_mini_clean.cpp",
                              "src/psync/upper/fixture.cpp", mini_layers());
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintLayering, FrozenDagMatchesTheRealIncludeGraph) {
  // The committed DAG must describe today's tree: linting all of
  // src/psync with the real layer file yields zero layer-* findings.
  // (The psync-lint CI job enforces the same over the compile database;
  // this keeps the guarantee inside ctest too.)
  const std::string root = PSYNC_SOURCE_ROOT;
  const auto files = lp::discover_files(root, {});
  lp::Report report;
  const lp::Policy policy;
  for (const auto& f : files) {
    if (f.find("/src/psync/") == std::string::npos) continue;
    const std::string rel = f.substr(root.size() + 1);
    lp::lint_file(rel, read_file(f), policy, real_layers(), &report);
  }
  for (const auto& f : report.findings) {
    EXPECT_NE(f.rule.rfind("layer-", 0), 0u)
        << f.file << ":" << f.line << " " << f.message;
  }
}

// ---------------------------------------------------------- dead-module

/// Lint a mini in-memory tree as one unit, so the cross-file pass runs.
lp::Report lint_mini_tree(const std::vector<lp::SourceFile>& files) {
  lp::Report report;
  lp::lint_tree(files, lp::Policy{}, real_layers(), &report);
  return report;
}

std::vector<std::string> dead_headers(const lp::Report& r) {
  std::vector<std::string> out;
  for (const auto& f : r.findings) {
    if (f.rule == "dead-module") out.push_back(f.file);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LintDeadModule, HeaderReachedFromToolsIsClean) {
  const auto r = lint_mini_tree({
      {"tools/sim.cpp", "#include \"psync/core/sca.hpp\"\n"},
      {"src/psync/core/sca.hpp",
       "#pragma once\n#include \"psync/common/rng.hpp\"\n"},
      {"src/psync/core/sca.cpp", "#include \"psync/core/run_merge.hpp\"\n"},
      {"src/psync/core/run_merge.hpp", "#pragma once\n"},
      {"src/psync/common/rng.hpp", "#pragma once\n"},
      {"src/psync/fft/fft_kernels.hpp", "#pragma once\n"},
      {"src/psync/fft/fft_kernels_avx2.cpp",
       "#include \"psync/fft/simd_only.hpp\"\n"},
      {"src/psync/fft/simd_only.hpp", "#pragma once\n"},
      {"bench/fig.cpp", "#include \"psync/fft/fft_kernels.hpp\"\n"},
  });
  // run_merge.hpp is live through sca.hpp's TU, simd_only.hpp through
  // the AVX2 variant of fft_kernels.hpp.
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintDeadModule, HeaderUsedOnlyByTestsAndExamplesFires) {
  const auto r = lint_mini_tree({
      {"tools/sim.cpp", "#include \"psync/core/sca.hpp\"\n"},
      {"src/psync/core/sca.hpp", "#pragma once\n"},
      {"src/psync/core/arbiter.hpp", "#pragma once\n"},
      {"src/psync/core/arbiter.cpp", "#include \"psync/core/arbiter.hpp\"\n"},
      {"tests/test_arbiter.cpp", "#include \"psync/core/arbiter.hpp\"\n"},
      {"examples/demo.cpp", "#include \"psync/core/arbiter.hpp\"\n"},
      {"tests/oracle/ref.hpp",
       "#pragma once\n#include \"psync/core/arbiter.hpp\"\n"},
  });
  EXPECT_EQ(dead_headers(r),
            std::vector<std::string>{"src/psync/core/arbiter.hpp"});
  ASSERT_EQ(r.findings.size(), 1u) << lp::render_text(r);
  EXPECT_EQ(r.findings[0].line, 0);
}

TEST(LintDeadModule, DeadHeadersIncludingEachOtherBothFire) {
  const auto r = lint_mini_tree({
      {"tools/sim.cpp", "#include \"psync/core/sca.hpp\"\n"},
      {"src/psync/core/sca.hpp", "#pragma once\n"},
      {"src/psync/core/kernel_vm.hpp",
       "#pragma once\n#include \"psync/core/cp_chain.hpp\"\n"},
      {"src/psync/core/cp_chain.hpp",
       "#pragma once\n#include \"psync/core/kernel_vm.hpp\"\n"},
      {"src/psync/core/cp_chain.cpp",
       "#include \"psync/core/cp_chain.hpp\"\n"
       "#include \"psync/core/sca.hpp\"\n"},
      {"tests/test_vm.cpp", "#include \"psync/core/kernel_vm.hpp\"\n"},
  });
  EXPECT_EQ(dead_headers(r),
            (std::vector<std::string>{"src/psync/core/cp_chain.hpp",
                                      "src/psync/core/kernel_vm.hpp"}));
}

TEST(LintDeadModule, HeaderlessTuKeepsItsIncludesLive) {
  // driver/canonical.cpp implements no header of its own; it is reached
  // because it includes driver/session.hpp, so its other include is live.
  const std::vector<lp::SourceFile> tree = {
      {"tools/sim.cpp", "#include \"psync/driver/session.hpp\"\n"},
      {"src/psync/driver/session.hpp", "#pragma once\n"},
      {"src/psync/driver/canonical.cpp",
       "#include \"psync/driver/session.hpp\"\n"
       "#include \"psync/common/csv.hpp\"\n"},
      {"src/psync/common/csv.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(lint_mini_tree(tree).findings.empty());

  // Through another module's header the TU stays unreached.
  auto foreign = tree;
  foreign[0] = {"tools/sim.cpp", "#include \"psync/common/rng.hpp\"\n"};
  foreign.push_back({"src/psync/common/rng.hpp", "#pragma once\n"});
  foreign[2].content = "#include \"psync/common/rng.hpp\"\n"
                       "#include \"psync/common/csv.hpp\"\n";
  EXPECT_EQ(dead_headers(lint_mini_tree(foreign)),
            (std::vector<std::string>{"src/psync/common/csv.hpp",
                                      "src/psync/driver/session.hpp"}));
}

TEST(LintDeadModule, AuditedAllowSilencesAndIsCounted) {
  const auto r = lint_mini_tree({
      {"tools/sim.cpp", "int main() {}\n"},
      {"src/psync/core/extension.hpp",
       "// An extension kept for a parked consumer.\n"
       "#pragma once\n"
       "// psync-lint: allow(dead-module): parked, wired by the next item\n"
       "namespace psync {}\n"},
  });
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rule, "dead-module");
  EXPECT_EQ(r.suppressions[0].uses, 1);
}

TEST(LintDeadModule, UnusedAllowIsAFinding) {
  const auto r = lint_mini_tree({
      {"tools/sim.cpp", "#include \"psync/core/sca.hpp\"\n"},
      {"src/psync/core/sca.hpp",
       "#pragma once\n"
       "// psync-lint: allow(dead-module): stale, sca is reached\n"},
  });
  EXPECT_EQ(count_rule(r, "lint-unused-suppression"), 1);
  EXPECT_EQ(count_rule(r, "dead-module"), 0);
  EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintDeadModule, RealTreeHasNoDeadHeader) {
  // The same guarantee the psync-lint CI job enforces over the compile
  // database, here over every file under the scanned roots.
  const std::string root = PSYNC_SOURCE_ROOT;
  std::vector<std::string> tus;
  for (const char* dir : {"src", "tools", "bench"}) {
    for (const auto& e : std::filesystem::recursive_directory_iterator(
             std::filesystem::path(root) / dir)) {
      if (e.path().extension() == ".cpp") tus.push_back(e.path().string());
    }
  }
  const lp::Report r = lp::run_lint(root, lp::discover_files(root, tus),
                                    lp::Policy{}, real_layers());
  EXPECT_TRUE(dead_headers(r).empty()) << lp::render_text(r);
}

// -------------------------------------------------------------- hygiene

TEST(LintHygiene, MissingPragmaOnceFires) {
  const auto r = lint_fixture("hyg_pragma_missing.hpp",
                              "src/psync/core/fixture.hpp");
  EXPECT_EQ(count_rule(r, "hyg-pragma-once"), 1);
}

TEST(LintHygiene, PragmaOncePresentIsClean) {
  const auto r =
      lint_fixture("hyg_pragma_clean.hpp", "src/psync/core/fixture.hpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintHygiene, UsingNamespaceInHeaderFires) {
  const auto r = lint_fixture("hyg_using_namespace.hpp",
                              "src/psync/core/fixture.hpp");
  EXPECT_EQ(count_rule(r, "hyg-using-namespace"), 1);
  EXPECT_EQ(count_rule(r, "hyg-pragma-once"), 0);
}

TEST(LintHygiene, UsingNamespaceInCppIsAllowed) {
  lp::Report r;
  lp::lint_file("src/psync/core/fixture.cpp",
                "using namespace std::chrono_literals;\n", lp::Policy{},
                real_layers(), &r);
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintHygiene, AssertSideEffectFiresOnDurabilityPath) {
  const auto r =
      lint_fixture("hyg_assert_fires.cpp", "src/psync/dist/fixture.cpp");
  EXPECT_EQ(count_rule(r, "hyg-assert-side-effect"), 1);
}

TEST(LintHygiene, ComparisonOnlyAssertIsClean) {
  const auto r =
      lint_fixture("hyg_assert_clean.cpp", "src/psync/dist/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << lp::render_text(r);
}

TEST(LintHygiene, AssertRuleScopedToDurabilityModules) {
  const auto r =
      lint_fixture("hyg_assert_fires.cpp", "src/psync/mesh/fixture.cpp");
  EXPECT_EQ(count_rule(r, "hyg-assert-side-effect"), 0);
}

// -------------------------------------------------------- parse failure

TEST(LintEngine, UntokenizableFileIsAParseFailure) {
  const auto r =
      lint_fixture("lex_error.cpp", "src/psync/core/fixture.cpp");
  EXPECT_EQ(r.parse_failures, 1);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "lex-error");
}

TEST(LintEngine, FixtureDirectoryIsNeverScanned) {
  lp::Report r;
  lp::lint_file("tests/lint_fixtures/det_rand_fires.cpp",
                read_file(fixture_path("det_rand_fires.cpp")), lp::Policy{},
                real_layers(), &r);
  EXPECT_EQ(r.files_scanned, 0);
  EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------- lexer

TEST(LintLexer, DigitSeparatorDoesNotOpenCharLiteral) {
  const auto toks = lp::lex("int x = 1'000'000; int y = 'a';");
  int chars = 0;
  for (const auto& t : toks) {
    if (t.kind == lp::TokKind::kChar) ++chars;
    if (t.kind == lp::TokKind::kNumber) {
      EXPECT_EQ(t.text, "1'000'000");
    }
  }
  EXPECT_EQ(chars, 1);
}

TEST(LintLexer, RawStringSwallowsEverything) {
  const auto toks = lp::lex("auto s = R\"x(rand() \" // )\" )x\"; rand();");
  int idents_named_rand = 0;
  for (const auto& t : toks) {
    if (t.kind == lp::TokKind::kIdent && t.text == "rand") {
      ++idents_named_rand;
    }
  }
  EXPECT_EQ(idents_named_rand, 1);  // only the real call after the string
}

TEST(LintLexer, LineNumbersSurviveContinuationsAndBlockComments) {
  const auto toks = lp::lex("/* line1\nline2 */\nint \\\nx;\nrand();");
  for (const auto& t : toks) {
    if (t.kind == lp::TokKind::kIdent && t.text == "rand") {
      EXPECT_EQ(t.line, 5);
    }
  }
}

TEST(LintLexer, DirectiveSpansContinuation) {
  const auto toks = lp::lex("#include \\\n\"psync/common/rng.hpp\"\nint x;");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, lp::TokKind::kDirective);
  EXPECT_NE(toks[0].text.find("psync/common/rng.hpp"), std::string::npos);
}

// ----------------------------------------------------------- layer file

TEST(LintLayerFile, RejectsUndeclaredDepAndDuplicates) {
  EXPECT_THROW(lp::LayerGraph::parse("layer a: ghost\n"),
               std::runtime_error);
  EXPECT_THROW(lp::LayerGraph::parse("layer a\nlayer a\n"),
               std::runtime_error);
  EXPECT_THROW(lp::LayerGraph::parse("module a\n"), std::runtime_error);
}

TEST(LintLayerFile, SelfEdgesAreImplicit) {
  const auto g = lp::LayerGraph::parse("layer a\nlayer b: a\n");
  EXPECT_TRUE(g.allowed("a", "a"));
  EXPECT_TRUE(g.allowed("b", "a"));
  EXPECT_FALSE(g.allowed("a", "b"));
}

// ------------------------------------------------------------ compdb

TEST(LintCompileDb, ParsesDirectoryRelativeFilesAndDedupes) {
  const std::string db = R"([
    {"directory": "/repo/build", "command": "c++ ...",
     "file": "/repo/src/psync/core/trace.cpp"},
    {"directory": "/repo/build", "command": "c++ ...",
     "file": "../src/psync/core/trace.cpp"},
    {"directory": "/repo/build", "arguments": ["c++", "-c"],
     "file": "../tools/psync_lint.cpp"}
  ])";
  const auto files = lp::compile_db_files(db);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/repo/src/psync/core/trace.cpp");
  EXPECT_EQ(files[1], "/repo/tools/psync_lint.cpp");
  EXPECT_EQ(lp::infer_repo_root(files), "/repo");
}

TEST(LintCompileDb, MalformedDatabaseThrows) {
  EXPECT_THROW(lp::compile_db_files("{\"not\": \"an array\"}"),
               lp::CompileDbError);
  EXPECT_THROW(lp::compile_db_files("[{\"directory\": \"/b\"}]"),
               lp::CompileDbError);
  EXPECT_THROW(lp::compile_db_files("[{\"file\": \"x.cpp\""),
               lp::CompileDbError);
}

// ------------------------------------------------------------ reporting

TEST(LintReport, JsonEscapesAndCounts) {
  lp::Report r;
  r.files_scanned = 1;
  r.findings.push_back(
      lp::Finding{"src/a.cpp", 3, "det-rand", "say \"hi\"\n", "fix"});
  const std::string json = lp::render_json(r);
  EXPECT_NE(json.find("\"say \\\"hi\\\"\\n\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"files_scanned\":1"), std::string::npos);
}

TEST(LintReport, EveryCatalogRuleHasIdSummaryHint) {
  for (const auto& rule : lp::rule_catalog()) {
    EXPECT_TRUE(lp::known_rule(rule.id));
    EXPECT_GT(std::string(rule.summary).size(), 0u);
    EXPECT_GT(std::string(rule.hint).size(), 0u);
  }
  EXPECT_FALSE(lp::known_rule("not-a-rule"));
}

}  // namespace
