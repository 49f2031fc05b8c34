// Per-directory rule policy: which rules apply where, and the explicit,
// committed allowlists that carve out the few places wall-clock time and
// hash-ordered containers are legitimate.
//
// Paths are repo-relative with forward slashes. Matching is by prefix, so
// "src/psync/perf/" covers the whole module and "src/psync/dist/merge"
// covers merge.hpp/merge.cpp. The allowlists are part of the reviewed
// policy: widening one is a diff on this file, not a scattering of inline
// suppressions.
#pragma once

#include <string>

namespace psync::lintpass {

struct Policy {
  /// Fixture snippets under tests/lint_fixtures/ exist to *fire* rules;
  /// the tree scan must never pick them up.
  [[nodiscard]] bool scanned(const std::string& rel_path) const;

  /// Determinism rules guard result-determining code: the library under
  /// src/ and the CLI drivers under tools/. Tests, benches and examples
  /// may time and randomize freely.
  [[nodiscard]] bool determinism_scope(const std::string& rel_path) const;

  /// Wall-clock allowlist: perf/ (that is its job), the two real-clock
  /// dist/ adapters (the leader's dist/supervisor*, the worker's
  /// dist/worker* with its heartbeat timer; the policies in dist/leader*
  /// and dist/link* and the codecs are not on it), serve/ socket
  /// timeouts, and the watchdog deadline in common/cancel.hpp. None of
  /// these feed simulation results.
  [[nodiscard]] bool clock_allowed(const std::string& rel_path) const;

  /// Serialization-order-sensitive modules where unordered containers
  /// need an audited suppression: canonical JSON, traces, CSV/journal
  /// writers, the dist merge, and the serve result cache.
  [[nodiscard]] bool order_sensitive(const std::string& rel_path) const;

  /// Durability paths where an assert() side effect would vanish under
  /// NDEBUG: the journal, everything dist/, everything serve/.
  [[nodiscard]] bool assert_sensitive(const std::string& rel_path) const;

  /// Sans-I/O files: the sweep leader's policy (dist/leader*) and the
  /// worker link's (dist/link*), which reach sockets, processes, files
  /// and time only through their seams. No POSIX, socket, process, clock
  /// or thread header may be included.
  [[nodiscard]] bool sans_io(const std::string& rel_path) const;

  /// Layering rules apply to the library only.
  [[nodiscard]] bool layering_scope(const std::string& rel_path) const;

  /// dead-module roots: the TUs under tools/ and bench/ are the entry
  /// points every library header must be reachable from. Tests, examples
  /// and the test oracles never are.
  [[nodiscard]] bool reach_root(const std::string& rel_path) const;

  [[nodiscard]] static bool is_header(const std::string& rel_path);
};

}  // namespace psync::lintpass
