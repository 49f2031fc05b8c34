#include "psync/common/journal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "psync/common/check.hpp"

namespace psync {

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::open(const std::string& path, bool keep_existing) {
  close();
  // Deliberately no O_TRUNC: truncation must wait until the flock below is
  // held, or opening a journal another process owns would wipe it before
  // the lock check could refuse. The ftruncate(fd, keep) path truncates
  // (keep stays 0 when !keep_existing) once ownership is established.
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    throw SimulationError("journal: cannot open '" + path +
                          "': " + std::strerror(errno));
  }

  // Exclusive append ownership: a second opener fails fast instead of the
  // two writers interleaving partial lines into one file. flock is
  // advisory and per open-file-description, so it also catches two
  // JournalWriters inside one process, and it evaporates when a SIGKILLed
  // owner's descriptors are closed by the kernel.
  int locked = -1;
  do {
    locked = ::flock(fd, LOCK_EX | LOCK_NB);
  } while (locked != 0 && errno == EINTR);
  if (locked != 0) {
    const bool busy = errno == EWOULDBLOCK || errno == EAGAIN;
    const std::string err = std::strerror(errno);
    ::close(fd);
    if (busy) {
      throw JournalBusyError("journal: '" + path +
                             "' is already open for append in another "
                             "process (flock held)");
    }
    throw SimulationError("journal: cannot lock '" + path + "': " + err);
  }

  // Resume after a crash: the file may end in a torn (unterminated) tail
  // from a write the kill interrupted. Appending after it would fuse the
  // fragment with the next record into one corrupt line, so truncate back
  // to the end of the last complete line before writing anything new.
  off_t keep = 0;
  if (keep_existing) {
    const off_t size = ::lseek(fd, 0, SEEK_END);
    if (size > 0) {
      std::ifstream in(path, std::ios::binary);
      std::string content((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
      const auto last_nl = content.rfind('\n');
      keep = last_nl == std::string::npos ? 0
                                          : static_cast<off_t>(last_nl) + 1;
    }
  }
  if (::ftruncate(fd, keep) != 0 || ::lseek(fd, keep, SEEK_SET) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw SimulationError("journal: cannot trim torn tail of '" + path +
                          "': " + err);
  }
  // O_CREAT may have minted a new directory entry; make it durable now.
  // Without this, a crash right after the first fsync'd append could lose
  // the *file name* while its blocks survive — the journal would read as
  // absent even though every acknowledged line was flushed.
  fsync_parent_dir(path);
  fd_ = fd;
  path_ = path;
}

void JournalWriter::append(const std::string& line) {
  PSYNC_CHECK(is_open());
  PSYNC_CHECK_MSG(line.find('\n') == std::string::npos,
                  "journal lines must not contain newlines");
  std::string buf = line;
  buf.push_back('\n');
  // One write(2) per line: '\n' is the last byte, so a crash mid-write can
  // only leave an unterminated tail the reader drops.
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SimulationError("journal: write to '" + path_ +
                            "' failed: " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw SimulationError("journal: fsync of '" + path_ +
                          "' failed: " + std::strerror(errno));
  }
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : slash == 0 ? std::string("/")
                                           : path.substr(0, slash);
  int fd = -1;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return;  // best-effort: an unreadable parent is not fatal
  int rc = -1;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  ::close(fd);  // EINVAL etc. from fsync: fs does not support it; ignore
}

std::vector<std::string> list_journal_files(const std::string& dir) {
  std::vector<std::string> paths;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return paths;
  const std::string suffix = ".jsonl";
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    paths.push_back(dir + "/" + name);
  }
  ::closedir(d);
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<std::string> read_journal_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path, std::ios::binary);
  if (!in) return lines;
  std::string line;
  while (std::getline(in, line)) {
    // std::getline strips the delimiter; at EOF-without-'\n' it still
    // returns the torn tail, which eof() before the delimiter flags.
    if (in.eof()) break;  // torn final line: drop it
    lines.push_back(line);
  }
  return lines;
}

}  // namespace psync
