#include "psync/lintpass/engine.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "psync/lintpass/lexer.hpp"
#include "psync/lintpass/rules.hpp"

namespace psync::lintpass {
namespace {

namespace fs = std::filesystem;

constexpr std::array<const char*, 5> kRoots = {"src", "tools", "tests",
                                               "bench", "examples"};

/// Parse one comment body for a suppression. Returns true when the
/// comment is a psync-lint directive at all; fills either a valid
/// suppression or a lint-bad-suppression finding.
bool parse_suppression(const std::string& rel_path, const Token& comment,
                       Suppression* out, std::vector<Finding>* bad) {
  // A directive must START the comment (after whitespace). This is what
  // lets documentation QUOTE the syntax: a quoted example carries its own
  // leading "//" inside the comment body, so it never parses as live.
  const std::string& body = comment.text;
  const std::size_t at = body.find_first_not_of(" \t*");
  if (at == std::string::npos ||
      body.compare(at, 11, "psync-lint:") != 0) {
    return false;
  }
  const auto flag = [&](const std::string& why) {
    bad->push_back(Finding{rel_path, comment.line, "lint-bad-suppression",
                           why,
                           "write // psync-lint: allow(<rule>): <reason>"});
  };
  std::size_t p = body.find("allow(", at);
  if (p == std::string::npos) {
    flag("malformed psync-lint directive (no allow(...))");
    return true;
  }
  p += 6;
  const std::size_t close = body.find(')', p);
  if (close == std::string::npos) {
    flag("malformed psync-lint directive (unclosed allow)");
    return true;
  }
  const std::string rule = body.substr(p, close - p);
  if (!known_rule(rule)) {
    flag("allow() names unknown rule '" + rule + "'");
    return true;
  }
  std::size_t r = body.find_first_not_of(" \t", close + 1);
  if (r == std::string::npos || body[r] != ':') {
    flag("suppression of '" + rule + "' carries no reason");
    return true;
  }
  r = body.find_first_not_of(" \t", r + 1);
  if (r == std::string::npos) {
    flag("suppression of '" + rule + "' carries an empty reason");
    return true;
  }
  std::string reason = body.substr(r);
  while (!reason.empty() &&
         (reason.back() == ' ' || reason.back() == '\t' ||
          reason.back() == '\r')) {
    reason.pop_back();
  }
  *out = Suppression{rel_path, comment.end_line, rule, reason, 0};
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xF]);
          out.push_back(kHex[c & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// One file's findings not yet matched against its suppressions, so the
/// cross-file pass can add to them first.
struct Pending {
  std::vector<Finding> raw;
  std::vector<Suppression> sups;
};

/// Lex `content` into `ctx` and run the per-file rules. False when the
/// policy skips the file or it does not lex (a "lex-error" finding is
/// then reported).
bool scan_file(const std::string& rel_path, const std::string& content,
               const Policy& policy, const LayerGraph& layers,
               Report* report, FileContext* ctx, Pending* out) {
  if (!policy.scanned(rel_path)) return false;
  ++report->files_scanned;

  ctx->rel_path = rel_path;
  ctx->is_header = Policy::is_header(rel_path);
  try {
    ctx->tokens = lex(content);
  } catch (const LexError& e) {
    ++report->parse_failures;
    report->findings.push_back(Finding{rel_path, e.line(), "lex-error",
                                       e.what(),
                                       "fix the unterminated construct"});
    return false;
  }

  run_rules(*ctx, policy, layers, &out->raw);
  for (const Token& t : ctx->tokens) {
    if (t.kind != TokKind::kComment) continue;
    Suppression s;
    if (parse_suppression(rel_path, t, &s, &out->raw) && !s.rule.empty()) {
      out->sups.push_back(std::move(s));
    }
  }
  return true;
}

/// Match a file's findings against its suppressions and report both. A
/// line-0 finding concerns the whole file, so an allow() of its rule
/// anywhere in the file silences it.
void settle(const std::string& rel_path, Pending& pending, Report* report) {
  for (Finding& f : pending.raw) {
    Suppression* hit = nullptr;
    for (Suppression& s : pending.sups) {
      if (s.rule == f.rule &&
          (f.line == 0 || f.line == s.line || f.line == s.line + 1)) {
        hit = &s;
        break;
      }
    }
    if (hit != nullptr) {
      ++hit->uses;
    } else {
      report->findings.push_back(std::move(f));
    }
  }
  for (Suppression& s : pending.sups) {
    if (s.uses == 0) {
      report->findings.push_back(
          Finding{rel_path, s.line, "lint-unused-suppression",
                  "allow(" + s.rule + ") silences nothing",
                  "delete it; stale allowances hide future regressions"});
    } else {
      report->suppressions.push_back(std::move(s));
    }
  }
}

}  // namespace

void lint_file(const std::string& rel_path, const std::string& content,
               const Policy& policy, const LayerGraph& layers,
               Report* report) {
  FileContext ctx;
  Pending pending;
  if (scan_file(rel_path, content, policy, layers, report, &ctx, &pending)) {
    settle(rel_path, pending, report);
  }
}

void lint_tree(const std::vector<SourceFile>& files, const Policy& policy,
               const LayerGraph& layers, Report* report) {
  std::vector<FileContext> contexts;
  std::vector<Pending> pending;
  std::map<std::string, std::size_t> index;
  for (const SourceFile& f : files) {
    FileContext ctx;
    Pending p;
    if (scan_file(f.rel_path, f.content, policy, layers, report, &ctx, &p)) {
      index[f.rel_path] = contexts.size();
      contexts.push_back(std::move(ctx));
      pending.push_back(std::move(p));
    }
  }

  std::vector<Finding> tree;
  run_tree_rules(contexts, policy, &tree);
  for (Finding& f : tree) {
    std::vector<Finding>& raw = pending[index.at(f.file)].raw;
    raw.insert(raw.begin(), std::move(f));  // line 0 sorts first
  }
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    settle(contexts[i].rel_path, pending[i], report);
  }
}

std::vector<std::string> discover_files(
    const std::string& repo_root, const std::vector<std::string>& tu_paths) {
  std::vector<std::string> files;
  const std::string prefix = repo_root + "/";
  for (const auto& tu : tu_paths) {
    if (tu.rfind(prefix, 0) != 0) continue;
    const std::string rel = tu.substr(prefix.size());
    for (const char* root : kRoots) {
      if (rel.rfind(std::string(root) + "/", 0) == 0) {
        files.push_back(tu);
        break;
      }
    }
  }
  for (const char* root : kRoots) {
    const fs::path dir = fs::path(repo_root) / root;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      if (it->path().extension() == ".hpp") {
        files.push_back(it->path().lexically_normal().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

Report run_lint(const std::string& repo_root,
                const std::vector<std::string>& abs_files,
                const Policy& policy, const LayerGraph& layers) {
  Report report;
  std::vector<SourceFile> files;
  const std::string prefix = repo_root + "/";
  for (const auto& path : abs_files) {
    if (path.rfind(prefix, 0) != 0) continue;
    const std::string rel = path.substr(prefix.size());
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      report.findings.push_back(
          Finding{rel, 0, "lex-error", "cannot read file", ""});
      ++report.parse_failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(SourceFile{rel, buf.str()});
  }
  lint_tree(files, policy, layers, &report);
  return report;
}

std::string render_text(const Report& report) {
  std::ostringstream out;
  for (const Finding& f : report.findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
    if (!f.hint.empty()) out << "    hint: " << f.hint << "\n";
  }
  if (!report.suppressions.empty()) {
    out << "audited suppressions:\n";
    for (const Suppression& s : report.suppressions) {
      out << "  " << s.file << ":" << s.line << ": allow(" << s.rule
          << ") x" << s.uses << " — " << s.reason << "\n";
    }
  }
  out << "psync_lint: ";
  if (report.findings.empty()) {
    out << "clean";
  } else {
    out << report.findings.size() << " finding"
        << (report.findings.size() == 1 ? "" : "s");
  }
  out << " (" << report.files_scanned << " files scanned, "
      << report.suppressions.size() << " audited suppression"
      << (report.suppressions.size() == 1 ? "" : "s") << ")\n";
  return out.str();
}

std::string render_json(const Report& report) {
  std::ostringstream out;
  out << "{\"files_scanned\":" << report.files_scanned
      << ",\"parse_failures\":" << report.parse_failures << ",\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i != 0) out << ",";
    out << "{\"file\":\"" << json_escape(f.file) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << json_escape(f.rule) << "\",\"message\":\""
        << json_escape(f.message) << "\",\"hint\":\"" << json_escape(f.hint)
        << "\"}";
  }
  out << "],\"suppressions\":[";
  for (std::size_t i = 0; i < report.suppressions.size(); ++i) {
    const Suppression& s = report.suppressions[i];
    if (i != 0) out << ",";
    out << "{\"file\":\"" << json_escape(s.file) << "\",\"line\":" << s.line
        << ",\"rule\":\"" << json_escape(s.rule) << "\",\"reason\":\""
        << json_escape(s.reason) << "\",\"uses\":" << s.uses << "}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace psync::lintpass
