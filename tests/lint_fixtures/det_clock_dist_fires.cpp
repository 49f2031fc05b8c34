// Fixture: the wall-clock reads the socket link and the heartbeat timer
// once made in dist/transport.cpp and dist/heartbeat.cpp — a hello-ack
// deadline and a timer interval. Linted under those paths each read is a
// det-wall-clock finding; under dist/worker.cpp, the worker's real-clock
// adapter, it is allowed.
#include <chrono>

bool hello_ack_overdue(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::steady_clock::now() >= deadline;
}
