// Append-only, fsync'd line journal — the crash-safety primitive under the
// experiment driver's sweep checkpointing.
//
// Contract: append() returns only after the line (with its trailing
// newline) has been handed to the kernel *and* fsync(2) succeeded, so a
// journal read back after a kill -9 contains every acknowledged line plus
// at most one torn tail. Each line is written with a single write(2) and
// '\n' is its last byte, so a partially-applied write can only produce an
// unterminated tail — which read_journal_lines() drops.
#pragma once

#include <string>
#include <vector>

namespace psync {

class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Open `path` for appending. With `keep_existing` the current content
  /// survives (resume); otherwise the file is truncated. Throws
  /// SimulationError when the file cannot be opened.
  ///
  /// Ownership: the writer takes an exclusive flock(2) advisory lock on the
  /// file for as long as it is open, so two processes (or two writers in
  /// one process) can never interleave appends into the same journal — the
  /// second opener gets a JournalBusyError instead of silent corruption.
  /// The lock dies with the holder, so a SIGKILLed worker's journal is
  /// immediately reopenable by its replacement.
  void open(const std::string& path, bool keep_existing);
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// Durably append one line (a trailing '\n' is added; `line` must not
  /// contain one). Throws SimulationError on write or fsync failure.
  void append(const std::string& line);

  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Every complete ('\n'-terminated) line of `path`, without the newline.
/// A torn final line — the kill -9 signature — is dropped; a missing file
/// reads as empty.
[[nodiscard]] std::vector<std::string> read_journal_lines(
    const std::string& path);

/// Every "*.jsonl" file directly inside `dir`, as full paths, sorted by
/// name (deterministic scan order). A missing or unreadable directory
/// reads as empty — the journal-store index for a cache directory that
/// has not been written to yet.
[[nodiscard]] std::vector<std::string> list_journal_files(
    const std::string& dir);

/// fsync the directory containing `path`, making a just-created (or
/// just-renamed) directory entry itself durable: fsync(file) persists the
/// file's bytes, but the *name* lives in the parent directory's data, and
/// a crash between the two can resurface an empty/absent journal a reader
/// already saw. Best-effort: filesystems that refuse directory fsync
/// (some network mounts) are ignored rather than failed.
void fsync_parent_dir(const std::string& path);

}  // namespace psync
