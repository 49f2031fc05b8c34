// The campaign daemon's policy, with no I/O of its own.
//
// ServeCore holds everything the daemon decides: line assembly and the
// max_line_bytes check, request parsing and dispatch, the submit path
// (INI -> spec_from_config -> threads override -> freeze -> the cache
// journal with resume on), the digest registry and its attach rule, the
// memoized result bodies, parked waits, subscriptions, cancel and
// shutdown. It sees the world only through ServeIo: connections and
// campaign changes arrive as calls (on_open, on_bytes, on_closed,
// on_campaigns_changed, stop), and every reply, close and campaign
// operation goes out as a call on the seam. It holds no CampaignHandle,
// so a test can model campaigns. server.cpp implements the seam with a
// poll(2) reactor over Unix-domain sockets and driver::Session; the
// serve simulator (tests/test_serve_sim.cpp) implements it with seeded
// schedules on a simulated clock. The core includes no POSIX, clock or
// thread header (psync_lint's sans-io-include rule keeps it that way).
//
// Rules the core keeps:
//   * Replies on a connection go out in request order. A `results` wait
//     on a running campaign parks the connection until the campaign
//     leaves running; a subscription replays from event 0 and ends with
//     one `done` frame. While a request is parked or a subscription is
//     live no further line is read (reading() is false), so the peer's
//     bytes stay in the socket, not in the daemon's memory.
//   * Attach: a submit whose digest names a running, uncancelled
//     campaign or a done one shares it. A cancelled or failed one runs
//     again: the submit parks until the old campaign leaves running, then
//     a new campaign starts and resumes the journal. A digest has at most
//     one live campaign.
//   * A malformed frame gets a typed error and the connection stays open;
//     a line longer than max_line_bytes gets frame_too_long and a close.
//   * stop() cancels every running campaign and refuses new submits; once
//     every campaign has left running, the parked requests are answered
//     and every connection is closed. After that the core is silent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "psync/driver/session.hpp"
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

/// A client connection, named by the seam; 0 is never a connection.
using ConnId = std::uint64_t;
/// One started campaign, named by the seam; 0 is never a campaign.
using RunId = std::uint64_t;

/// Everything the daemon does to the outside world.
class ServeIo {
 public:
  ServeIo() = default;
  virtual ~ServeIo() = default;
  ServeIo(const ServeIo&) = delete;
  ServeIo& operator=(const ServeIo&) = delete;

  /// Queue one frame for `conn` ('\n' is appended). Never blocks; a peer
  /// that is gone is reported later through on_closed.
  virtual void send(ConnId conn, const std::string& line) = 0;
  /// Flush what is queued for `conn`, then close it. No on_closed follows.
  virtual void close(ConnId conn) = 0;
  /// Start a campaign on its own thread of execution.
  virtual RunId start(driver::FrozenSpec frozen) = 0;
  virtual void cancel(RunId run) = 0;
  [[nodiscard]] virtual driver::CampaignState state(RunId run) = 0;
  [[nodiscard]] virtual driver::CampaignProgress progress(RunId run) = 0;
  /// Append the campaign's events [cursor, size) to `*out` and return the
  /// new cursor. Never waits.
  virtual std::size_t events_since(RunId run, std::size_t cursor,
                                   std::vector<driver::CampaignEvent>* out) = 0;
  /// The finished result of a campaign that has left running; rethrows
  /// its exception when it failed or was cancelled.
  virtual const driver::SweepResult& result(RunId run) = 0;
  /// A client sent {"op":"shutdown"}.
  virtual void request_shutdown() = 0;
};

class ServeCore {
 public:
  ServeCore(ServerOptions opts, ServeIo* io);

  void on_open(ConnId conn);
  /// Bytes read from `conn`. Callers deliver bytes only while
  /// reading(conn) is true.
  void on_bytes(ConnId conn, const char* data, std::size_t n);
  /// The peer went away (EOF, error); the core forgets the connection
  /// and sends nothing more on it.
  void on_closed(ConnId conn);
  /// Some campaign recorded an event or left running: advance every
  /// parked wait and live subscription.
  void on_campaigns_changed();
  /// Cancel every running campaign and refuse new submits; the parked
  /// requests are answered and every connection is closed once the last
  /// campaign has left running (the on_campaigns_changed that sees it).
  void stop();

  /// False while a request on `conn` is parked or its subscription is
  /// live (and for a connection the core does not know).
  [[nodiscard]] bool reading(ConnId conn) const;
  /// stop() was called and every connection has been closed.
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  enum class Wait { kNone, kSubmit, kResults, kSubscribe };
  struct Conn {
    std::string buf;  // bytes not yet consumed as request lines
    Wait wait = Wait::kNone;
    Request req;                // the parked request
    driver::FrozenSpec frozen;  // a parked submit's spec
    RunId run = 0;              // the campaign the wait is on
    std::size_t cursor = 0;     // a subscription's next event
  };
  struct Entry {
    RunId run = 0;
    bool cancelled = false;  // a cancel op or stop() reached this run
    // Rendered bodies of a done run, memoized per format (empty: not yet
    // rendered; a rendered body is never empty).
    std::string json_body;
    std::string csv_body;
  };

  /// Consume complete lines until the connection parks or closes.
  void drain(ConnId id);
  /// Handle one line; false when the connection was closed.
  bool dispatch(ConnId id, Conn& c, const std::string& line);
  void submit(ConnId id, Conn& c);
  void results(ConnId id, Conn& c);
  void answer_results(ConnId id, const Request& req, RunId run);
  /// Send a subscription's new events, and `done` once its campaign has
  /// left running; true when the subscription ended.
  bool pump(ConnId id, Conn& c);
  /// A parked request's campaign changed; true when the wait ended.
  bool resume(ConnId id, Conn& c);
  /// The registry entry for `digest`, or an unknown_campaign reply.
  Entry* find(ConnId id, std::uint64_t digest);
  void park(ConnId id, Conn& c, Wait wait, RunId run);
  void close(ConnId id);
  /// After stop(): once nothing runs, close every connection.
  void finish_stop();

  ServerOptions opts_;
  ServeIo* io_;
  std::map<ConnId, Conn> conns_;
  std::set<ConnId> parked_;
  std::map<std::uint64_t, Entry> registry_;
  bool stopping_ = false;
  bool stopped_ = false;
};

}  // namespace psync::serve
