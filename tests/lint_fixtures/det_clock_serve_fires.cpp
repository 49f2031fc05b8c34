// Fixture: a deadline read of the kind a daemon might take to time a
// client out. Linted under src/psync/serve/server.cpp each read is a
// det-wall-clock finding: serve/ is not on the wall-clock allowlist, so
// the daemon bounds its waits with poll(2) timeouts, never a clock read.
#include <chrono>

bool client_overdue(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::steady_clock::now() >= deadline;
}
