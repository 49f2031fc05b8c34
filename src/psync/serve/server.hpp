// The campaign service: a Unix-domain stream server that turns the
// driver's Session API into a long-lived daemon.
//
//   client line  ->  protocol::parse_request  ->  dispatch
//     submit     ->  IniConfig::parse + spec_from_config + Session::freeze
//                    -> dedupe by spec digest -> Session::submit
//     status     ->  CampaignHandle::progress
//     results    ->  sweep_json / sweep_csv of the finished campaign
//     subscribe  ->  CampaignHandle::events_since streamed as frames
//     cancel     ->  CampaignHandle::cancel
//     shutdown   ->  wake wait_for_shutdown()
//
// Concurrency model: one accept thread, one thread per connection, one
// campaign thread per distinct submitted spec (Session::submit). Two
// clients submitting the same spec — the digest is the identity — share
// one campaign: the second submit attaches to the running (or finished)
// campaign instead of colliding on its journal's flock. Overlapping but
// different grids share per-point results through the ResultCache.
//
// Durability: with a cache directory configured, every campaign journals
// to <cache_dir>/<spec digest>.jsonl with resume always on. A SIGKILLed
// daemon restarts into the same directory, rebuilds the cache index from
// the journals, and a resubmitted campaign completes from its own
// journal's splice plus the cache — byte-identical to an uninterrupted
// run (tools/serve_smoke.sh proves this in CI).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "psync/driver/session.hpp"
#include "psync/serve/cache.hpp"
#include "psync/serve/protocol.hpp"

namespace psync::serve {

struct ServerOptions {
  /// Filesystem path the Unix-domain socket is bound to. A stale socket
  /// file from a killed daemon is unlinked on start.
  std::string socket_path;
  /// Journal/cache directory; empty runs the daemon with an in-memory
  /// cache only (no durability — unit-test mode).
  std::string cache_dir;
  /// Default SweepEngine threads per campaign when neither the config nor
  /// the submit frame says otherwise (0 = leave the spec's value).
  std::size_t threads = 0;
  /// Reject request lines longer than this (a defense against a client
  /// streaming garbage into the daemon's memory).
  std::size_t max_line_bytes = 1 << 20;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start the accept loop. Throws SimulationError when
  /// the socket cannot be created or bound.
  void start();

  /// Close the listener and every connection, cancel still-running
  /// campaigns, and join all threads. Idempotent.
  void stop();

  /// Block until a client sends {"op":"shutdown"} or stop() is called.
  void wait_for_shutdown();

  [[nodiscard]] const ResultCache& cache() const { return cache_; }
  /// Campaigns currently registered (running or finished).
  [[nodiscard]] std::size_t campaigns() const;

 private:
  struct Entry {
    driver::CampaignHandle handle;
    // Rendered bodies, memoized on first `results` request per format.
    std::string json_body;
    std::string csv_body;
    bool has_json = false;
    bool has_csv = false;
  };

  void accept_loop();
  void serve_connection(int fd);
  /// Dispatch one request line; returns false when the connection should
  /// close (shutdown).
  bool handle_request(int fd, const std::string& line);
  void handle_submit(int fd, const Request& req);
  void handle_status(int fd, const Request& req);
  void handle_results(int fd, const Request& req);
  void handle_subscribe(int fd, const Request& req);
  void handle_cancel(int fd, const Request& req);
  /// Registry lookup; sends an error frame and returns false on a miss.
  bool find_campaign(int fd, std::uint64_t digest, Entry** out);
  /// Write one '\n'-terminated frame; false when the peer is gone.
  bool send_line(int fd, const std::string& line);

  ServerOptions opts_;
  ResultCache cache_;
  driver::Session session_;

  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;

  mutable std::mutex reg_mu_;
  std::map<std::uint64_t, Entry> registry_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace psync::serve
