// The campaign service: a Unix-domain stream server that turns the
// driver's Session API into a long-lived daemon.
//
//   client line  ->  protocol::parse_request  ->  dispatch
//     submit     ->  IniConfig::parse + spec_from_config + Session::freeze
//                    -> dedupe by spec digest -> Session::submit
//     status     ->  CampaignHandle::progress
//     results    ->  sweep_json / sweep_csv of the finished campaign
//     subscribe  ->  the campaign's events streamed as frames
//     cancel     ->  CampaignHandle::cancel
//     shutdown   ->  wake wait_for_shutdown()
//
// Every decision in that table lives in ServeCore (core.hpp), which has
// no I/O of its own; Server is its seam's POSIX side.
//
// Thread model: one reactor thread runs every connection. It poll(2)s
// the listener, each connection and a wake pipe, reads request bytes
// into the core, and drains each connection's output buffer on POLLOUT,
// so a slow reader never blocks another client. A connection whose
// request is parked (a `results` wait, a live subscription) is not read
// from until the wait ends. Each distinct campaign runs on its own thread
// (Session::submit); a campaign wakes the reactor by writing one byte to
// the wake pipe (Session::Options::on_change) whenever it records an
// event or leaves running, and the reactor hands that to the core. An
// idle daemon with k open connections runs one server thread, not one
// per connection. stop() wakes the reactor, which closes the listener,
// cancels every campaign and waits for them all, answers the parked
// requests and closes each connection with a best-effort non-blocking
// flush; then stop() joins it.
//
// Two clients submitting the same spec — the digest is the identity —
// share one campaign (core.hpp has the attach rule); overlapping but
// different grids share per-point results through the ResultCache.
//
// Durability: with a cache directory configured, every campaign journals
// to <cache_dir>/<spec digest>.jsonl with resume always on. A SIGKILLed
// daemon restarts into the same directory, rebuilds the cache index from
// the journals, and a resubmitted campaign completes from its own
// journal's splice plus the cache — byte-identical to an uninterrupted
// run (tools/serve_smoke.sh proves this in CI).
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "psync/serve/cache.hpp"
#include "psync/serve/core.hpp"

namespace psync::serve {

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start the reactor thread. Throws SimulationError
  /// when the socket cannot be created or bound.
  void start();

  /// Close the listener, cancel still-running campaigns and wait for
  /// them, answer parked requests, close every connection and join the
  /// reactor. Idempotent.
  void stop();

  /// Block until a client sends {"op":"shutdown"} or stop() is called.
  void wait_for_shutdown();

  [[nodiscard]] const ResultCache& cache() const { return cache_; }

 private:
  class Reactor;  // the ServeIo seam's POSIX side (server.cpp)

  void request_shutdown();

  ServerOptions opts_;
  ResultCache cache_;
  std::unique_ptr<Reactor> reactor_;
  std::thread thread_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace psync::serve
