#include "psync/lintpass/rules.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <set>

namespace psync::lintpass {
namespace {

// ---------------------------------------------------------------- catalog

const std::vector<RuleInfo> kCatalog = {
    {"det-wall-clock",
     "wall-clock read (time(), gettimeofday, *_clock) outside the allowlist",
     "derive time from the simulation clock or seeded config; if this is "
     "supervision/timeout code, extend the policy allowlist in review"},
    {"det-rand",
     "ambient randomness (rand, srand, random_device) outside the allowlist",
     "use psync::common rng seeded from the experiment spec"},
    {"det-pointer-format",
     "pointer formatted into output (address-dependent bytes)",
     "print an index or id instead; addresses differ across runs and ASLR"},
    {"det-unordered",
     "unordered container in a serialization-order-sensitive module",
     "use std::map/std::set or sort before emitting; if iteration order "
     "provably never escapes, suppress with an audit reason"},
    {"layer-violation",
     "#include edge not in the frozen layer DAG (tools/lint_layers.txt)",
     "depend downward only; amending the DAG is a reviewed change to "
     "tools/lint_layers.txt"},
    {"layer-unknown-module",
     "#include of a psync module the layer DAG does not declare",
     "declare the new module and its dependencies in tools/lint_layers.txt"},
    {"layer-relative-include",
     "quoted include in src/psync that does not start with \"psync/\"",
     "use the full \"psync/<module>/<header>\" path so layering is checkable"},
    {"sans-io-include",
     "POSIX, socket, process, clock or thread header in a sans-I/O file "
     "(src/psync/dist/leader*, src/psync/dist/link*, src/psync/serve/core*)",
     "reach the outside world through the LeaderIo, LinkIo or ServeIo "
     "seam; the POSIX sides live in dist/supervisor.cpp, dist/worker.cpp "
     "and serve/server.cpp"},
    {"hyg-pragma-once",
     "header without #pragma once",
     "add #pragma once as the first directive"},
    {"hyg-using-namespace",
     "using namespace at header scope",
     "qualify names or move the using-directive into a .cpp"},
    {"hyg-assert-side-effect",
     "assert() with a side effect on a journal/fsync path",
     "hoist the expression out of the assert; NDEBUG strips it and the "
     "durability path silently changes"},
    {"dead-module",
     "src/psync header that no tools/ or bench/ translation unit reaches",
     "wire it into a production path or delete it with its tests; an "
     "audited allow(dead-module) anywhere in the header keeps it"},
    {"lint-bad-suppression",
     "psync-lint suppression without a reason",
     "write // psync-lint: allow(<rule>): <why this is safe>"},
    {"lint-unused-suppression",
     "psync-lint suppression that silences nothing",
     "delete it; stale allowances hide future regressions"},
};

// Identifiers that read ambient wall-clock time. `time` itself is handled
// separately (call position only) because it is too common a member name.
constexpr std::array<const char*, 8> kClockIdents = {
    "gettimeofday", "clock_gettime",         "timespec_get",
    "localtime",    "gmtime",                "strftime",
    "steady_clock", "high_resolution_clock",
};
// system_clock is in the same bucket; listed separately only to keep the
// array literal lines short.
constexpr const char* kSystemClock = "system_clock";

// Ambient randomness: call-position identifiers...
constexpr std::array<const char*, 4> kRandCalls = {"rand", "srand", "random",
                                                   "drand48"};
// ...and type names that fire on any mention.
constexpr const char* kRandomDevice = "random_device";

constexpr std::array<const char*, 4> kUnordered = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const RuleInfo& info(const char* id) {
  for (const auto& r : kCatalog) {
    if (std::string(r.id) == id) return r;
  }
  return kCatalog.front();  // unreachable for shipped ids
}

// --------------------------------------------------------------- helpers

/// Iterates code tokens only (comments and directives skipped), with
/// lookback/lookahead that rules use to classify call sites.
class CodeView {
 public:
  explicit CodeView(const std::vector<Token>& tokens) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].kind != TokKind::kComment &&
          tokens[i].kind != TokKind::kDirective) {
        idx_.push_back(i);
      }
    }
    tokens_ = &tokens;
  }

  [[nodiscard]] std::size_t size() const { return idx_.size(); }
  [[nodiscard]] const Token& at(std::size_t i) const {
    return (*tokens_)[idx_[i]];
  }
  /// Token at i+delta, or a sentinel empty punct when out of range.
  [[nodiscard]] const Token& rel(std::size_t i, std::ptrdiff_t delta) const {
    const auto j = static_cast<std::ptrdiff_t>(i) + delta;
    if (j < 0 || j >= static_cast<std::ptrdiff_t>(idx_.size())) {
      static const Token kNone{TokKind::kPunct, "", 0, 0};
      return kNone;
    }
    return (*tokens_)[idx_[static_cast<std::size_t>(j)]];
  }

 private:
  const std::vector<Token>* tokens_ = nullptr;
  std::vector<std::size_t> idx_;
};

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

void emit(const FileContext& ctx, const char* rule, int line,
          std::string message, std::vector<Finding>* out) {
  const RuleInfo& ri = info(rule);
  out->push_back(
      Finding{ctx.rel_path, line, rule, std::move(message), ri.hint});
}

// ---------------------------------------------------------- determinism

/// `time(`/`rand(` style call sites: fire on a bare call or an explicit
/// `std::` qualification, stay quiet for members (`obj.time()`), other
/// namespaces (`sim::time()`), and declarations (`long time() const` — a
/// preceding identifier is a return type unless it is one of the keywords
/// that can precede a call expression).
bool is_banned_call(const CodeView& code, std::size_t i, const char* name) {
  if (!is_ident(code.at(i), name) || !is_punct(code.rel(i, 1), "(")) {
    return false;
  }
  const Token& prev = code.rel(i, -1);
  if (is_punct(prev, ".") || is_punct(prev, "->")) return false;
  if (is_punct(prev, "::")) return is_ident(code.rel(i, -2), "std");
  if (prev.kind == TokKind::kIdent) {
    static const std::array<const char*, 5> kCallKeywords = {
        "return", "co_return", "co_await", "co_yield", "case"};
    return std::any_of(kCallKeywords.begin(), kCallKeywords.end(),
                       [&](const char* k) { return prev.text == k; });
  }
  return true;
}

void check_determinism(const FileContext& ctx, const Policy& policy,
                       const CodeView& code, std::vector<Finding>* out) {
  const bool clock_ok = policy.clock_allowed(ctx.rel_path);
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code.at(i);
    if (t.kind != TokKind::kIdent) continue;
    if (!clock_ok) {
      for (const char* id : kClockIdents) {
        if (t.text == id) {
          emit(ctx, "det-wall-clock", t.line, "use of " + t.text, out);
        }
      }
      if (t.text == kSystemClock) {
        emit(ctx, "det-wall-clock", t.line, "use of system_clock", out);
      }
      if (is_banned_call(code, i, "time")) {
        emit(ctx, "det-wall-clock", t.line, "call of time()", out);
      }
    }
    if (t.text == kRandomDevice) {
      emit(ctx, "det-rand", t.line, "use of std::random_device", out);
    }
    for (const char* name : kRandCalls) {
      if (is_banned_call(code, i, name)) {
        emit(ctx, "det-rand", t.line, "call of " + t.text + "()", out);
      }
    }
  }
}

void check_pointer_format(const FileContext& ctx, const CodeView& code,
                          std::vector<Finding>* out) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code.at(i);
    // printf-family: a pointer conversion in a format string. The
    // pattern constant below is the rule's own matcher, not a use.
    // psync-lint: allow(det-pointer-format): the rule's own pattern constant
    constexpr const char* kPtrFormat = "%p";
    if (t.kind == TokKind::kString &&
        t.text.find(kPtrFormat) != std::string::npos) {
      emit(ctx, "det-pointer-format", t.line,
           "printf pointer conversion in a format string", out);
      continue;
    }
    // iostream: `<< static_cast<void*>(..)` or `<< (void*)..` /
    // `<< (const void*)..`.
    if (!is_punct(t, "<<")) continue;
    if (is_ident(code.rel(i, 1), "static_cast") &&
        is_punct(code.rel(i, 2), "<")) {
      std::ptrdiff_t j = 3;
      if (is_ident(code.rel(i, j), "const")) ++j;
      if (is_ident(code.rel(i, j), "void") &&
          is_punct(code.rel(i, j + 1), "*")) {
        emit(ctx, "det-pointer-format", t.line,
             "pointer streamed via static_cast<void*>", out);
      }
    }
    if (is_punct(code.rel(i, 1), "(")) {
      std::ptrdiff_t j = 2;
      if (is_ident(code.rel(i, j), "const")) ++j;
      if (is_ident(code.rel(i, j), "void") &&
          is_punct(code.rel(i, j + 1), "*") &&
          is_punct(code.rel(i, j + 2), ")")) {
        emit(ctx, "det-pointer-format", t.line,
             "pointer streamed via a (void*) cast", out);
      }
    }
  }
}

void check_unordered(const FileContext& ctx, const CodeView& code,
                     std::vector<Finding>* out) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code.at(i);
    if (t.kind != TokKind::kIdent) continue;
    for (const char* name : kUnordered) {
      if (t.text == name) {
        emit(ctx, "det-unordered", t.line,
             "std::" + t.text + " in an order-sensitive module", out);
      }
    }
  }
}

// ------------------------------------------------------------- layering

/// The target of an #include directive delimited by `open`/`close` ('"'
/// for a quoted include, '<' '>' for a system one); "" for any other
/// token, directive or include form.
std::string include_target(const Token& t, char open, char close) {
  if (t.kind != TokKind::kDirective) return "";
  const std::string& body = t.text;
  const std::size_t p = body.find_first_not_of(" \t");
  if (p == std::string::npos || body.compare(p, 7, "include") != 0) {
    return "";
  }
  const std::size_t from = body.find_first_not_of(" \t", p + 7);
  if (from == std::string::npos || body[from] != open) return "";
  const std::size_t to = body.find(close, from + 1);
  if (to == std::string::npos) return "";
  return body.substr(from + 1, to - from - 1);
}

void check_layering(const FileContext& ctx, const LayerGraph& layers,
                    std::vector<Finding>* out) {
  const std::string from = module_of(ctx.rel_path);
  for (const Token& t : ctx.tokens) {
    const std::string target = include_target(t, '"', '"');
    if (target.empty()) continue;
    if (target.rfind("psync/", 0) != 0) {
      emit(ctx, "layer-relative-include", t.line,
           "quoted include \"" + target + "\" bypasses the layer check",
           out);
      continue;
    }
    const std::string to = module_of("src/" + target);
    if (to.empty() || !layers.has_layer(to)) {
      emit(ctx, "layer-unknown-module", t.line,
           "include of undeclared module in \"" + target + "\"", out);
      continue;
    }
    if (!from.empty() && !layers.has_layer(from)) {
      emit(ctx, "layer-unknown-module", t.line,
           "module '" + from + "' is not declared in the layer DAG", out);
      continue;
    }
    if (!from.empty() && !layers.allowed(from, to)) {
      emit(ctx, "layer-violation", t.line,
           "'" + from + "' must not include '" + to + "' (\"" + target +
               "\")",
           out);
    }
  }
}

// --------------------------------------------------------------- sans-io

bool io_header(const std::string& h) {
  static const std::set<std::string> kHeaders = {
      "unistd.h", "poll.h", "signal.h", "csignal", "fcntl.h",
      "netdb.h",  "chrono", "thread"};
  return kHeaders.count(h) != 0 || h.rfind("sys/", 0) == 0 ||
         h.rfind("netinet/", 0) == 0 || h.rfind("arpa/", 0) == 0;
}

void check_sans_io(const FileContext& ctx, std::vector<Finding>* out) {
  for (const Token& t : ctx.tokens) {
    const std::string header = include_target(t, '<', '>');
    if (io_header(header)) {
      emit(ctx, "sans-io-include", t.line,
           "<" + header + "> in a sans-I/O file", out);
    }
  }
}

// -------------------------------------------------------------- hygiene

void check_pragma_once(const FileContext& ctx, std::vector<Finding>* out) {
  for (const Token& t : ctx.tokens) {
    if (t.kind != TokKind::kDirective) continue;
    std::string body = t.text;
    body.erase(std::remove_if(body.begin(), body.end(),
                              [](char c) { return c == ' ' || c == '\t'; }),
               body.end());
    if (body == "pragmaonce") return;
  }
  emit(ctx, "hyg-pragma-once", 1, "header lacks #pragma once", out);
}

void check_using_namespace(const FileContext& ctx, const CodeView& code,
                           std::vector<Finding>* out) {
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (is_ident(code.at(i), "using") &&
        is_ident(code.at(i + 1), "namespace")) {
      emit(ctx, "hyg-using-namespace", code.at(i).line,
           "using-directive in a header", out);
    }
  }
}

void check_assert_side_effect(const FileContext& ctx, const CodeView& code,
                              std::vector<Finding>* out) {
  static const std::array<const char*, 12> kMutators = {
      "++", "--", "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<="};
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (!is_ident(code.at(i), "assert") || !is_punct(code.at(i + 1), "(")) {
      continue;
    }
    int depth = 0;
    for (std::size_t j = i + 1; j < code.size(); ++j) {
      const Token& t = code.at(j);
      if (is_punct(t, "(")) ++depth;
      if (is_punct(t, ")") && --depth == 0) break;
      if (t.kind != TokKind::kPunct) continue;
      if (std::any_of(kMutators.begin(), kMutators.end(),
                      [&](const char* m) { return t.text == m; })) {
        emit(ctx, "hyg-assert-side-effect", code.at(i).line,
             "assert() argument mutates state ('" + t.text + "')", out);
        break;
      }
    }
  }
}

// ---------------------------------------------------------- dead-module

// Per-ISA variants implement their base header: fft_kernels_avx2.cpp
// carries part of fft_kernels.hpp.
constexpr std::array<const char*, 3> kIsaSuffixes = {"_avx2", "_pclmul",
                                                     "_neon"};

/// The header a library TU implements: same stem, ISA suffix stripped.
std::string implemented_header(const std::string& tu) {
  std::string stem = tu.substr(0, tu.rfind('.'));
  for (const char* suffix : kIsaSuffixes) {
    const std::string sfx = suffix;
    if (stem.size() > sfx.size() &&
        stem.compare(stem.size() - sfx.size(), sfx.size(), sfx) == 0) {
      stem.resize(stem.size() - sfx.size());
      break;
    }
  }
  return stem + ".hpp";
}

void check_dead_modules(const std::vector<FileContext>& files,
                        const Policy& policy, std::vector<Finding>* out) {
  // file -> the repo-relative files its "psync/..." includes name
  std::map<std::string, std::vector<std::string>> includes;
  for (const FileContext& f : files) {
    auto& targets = includes[f.rel_path];
    for (const Token& t : f.tokens) {
      const std::string target = include_target(t, '"', '"');
      if (target.rfind("psync/", 0) == 0) targets.push_back("src/" + target);
    }
  }
  // header -> its implementing TUs; library TUs that implement none
  std::map<std::string, std::vector<std::string>> impls;
  std::vector<std::string> headerless;
  for (const auto& [rel, targets] : includes) {
    if (!policy.layering_scope(rel) || Policy::is_header(rel)) continue;
    const std::string header = implemented_header(rel);
    if (includes.count(header) != 0) {
      impls[header].push_back(rel);
    } else {
      headerless.push_back(rel);
    }
  }

  std::set<std::string> reached;
  std::vector<std::string> work;
  const auto reach = [&](const std::string& rel) {
    if (includes.count(rel) != 0 && reached.insert(rel).second) {
      work.push_back(rel);
    }
  };
  for (const auto& [rel, targets] : includes) {
    if (policy.reach_root(rel)) reach(rel);
  }
  bool grew = true;
  while (grew) {
    while (!work.empty()) {
      const std::string rel = work.back();
      work.pop_back();
      for (const std::string& t : includes.at(rel)) reach(t);
      const auto it = impls.find(rel);
      if (it == impls.end()) continue;
      for (const std::string& tu : it->second) reach(tu);
    }
    // A TU with no header of its own (driver/canonical.cpp) is reached
    // once it includes a reached header of its own module.
    grew = false;
    for (const std::string& tu : headerless) {
      if (reached.count(tu) != 0) continue;
      const std::string module = module_of(tu);
      for (const std::string& t : includes.at(tu)) {
        if (reached.count(t) != 0 && module_of(t) == module) {
          reach(tu);
          grew = true;
          break;
        }
      }
    }
  }

  for (const auto& [rel, targets] : includes) {
    if (!policy.layering_scope(rel) || !Policy::is_header(rel) ||
        reached.count(rel) != 0) {
      continue;
    }
    out->push_back(Finding{rel, 0, "dead-module",
                           "no tools/ or bench/ translation unit reaches "
                           "this header",
                           info("dead-module").hint});
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() { return kCatalog; }

bool known_rule(const std::string& id) {
  return std::any_of(kCatalog.begin(), kCatalog.end(),
                     [&](const RuleInfo& r) { return id == r.id; });
}

void run_rules(const FileContext& ctx, const Policy& policy,
               const LayerGraph& layers, std::vector<Finding>* out) {
  const CodeView code(ctx.tokens);
  if (policy.determinism_scope(ctx.rel_path)) {
    check_determinism(ctx, policy, code, out);
    check_pointer_format(ctx, code, out);
    if (policy.order_sensitive(ctx.rel_path)) {
      check_unordered(ctx, code, out);
    }
  }
  if (policy.layering_scope(ctx.rel_path)) {
    check_layering(ctx, layers, out);
  }
  if (policy.sans_io(ctx.rel_path)) check_sans_io(ctx, out);
  if (ctx.is_header) {
    check_pragma_once(ctx, out);
    check_using_namespace(ctx, code, out);
  }
  if (policy.assert_sensitive(ctx.rel_path)) {
    check_assert_side_effect(ctx, code, out);
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
}

void run_tree_rules(const std::vector<FileContext>& files,
                    const Policy& policy, std::vector<Finding>* out) {
  check_dead_modules(files, policy, out);
}

}  // namespace psync::lintpass
