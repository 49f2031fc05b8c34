// Fresh temporary directories for the tests, removed when the test process
// exits (ctest runs each test in a process of its own). A name reused
// across runs would let one run's leftovers leak into the next: a journal
// found there is resumed instead of executed.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "psync/common/check.hpp"

namespace psync {

/// A new mkdtemp directory named `<TempDir>/<prefix>XXXXXX`. Only the
/// process that made it removes it: a forked worker leaves through _exit
/// and never runs the cleanup.
inline std::string make_temp_dir(const std::string& prefix) {
  struct Registry {
    ~Registry() {
      if (::getpid() != owner) return;
      std::error_code ec;
      for (const auto& dir : dirs) std::filesystem::remove_all(dir, ec);
    }
    pid_t owner = ::getpid();
    std::vector<std::string> dirs;
  };
  static Registry registry;
  std::string dir = testing::TempDir() + prefix + "XXXXXX";
  PSYNC_CHECK(::mkdtemp(dir.data()) != nullptr);
  registry.dirs.push_back(dir);
  return dir;
}

}  // namespace psync
