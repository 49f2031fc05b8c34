// Deterministic simulation of the campaign daemon's policy.
// ServeCore (serve/core.hpp) runs against a seeded simulator instead of
// sockets, a reactor and campaign threads: the simulator implements
// ServeIo with simulated clients and modelled campaigns, all on a
// simulated millisecond clock whose events sit in a CalendarQueue.
//
// Each seed draws one schedule over three small valid specs (two of them
// with overlapping grids) and one invalid one. Clients open connections
// and send request mixes — submit, status, results (waiting or not, json
// or csv), subscribe, cancel with an immediate resubmit, frames from the
// ProtocolFuzz mutator, over-long lines and the odd shutdown — with their
// bytes split at drawn points, down to one byte at a time, and they
// disconnect mid-stream. Modelled campaigns emit one record of the serial
// Session::run per point, journaled points first (a resume), the rest in
// a drawn order at drawn times, and end done, failed or cancelled; the
// modelled journal outlives the daemon. Restarts destroy the core
// mid-schedule, and every schedule ends with stop(). Every seed checks:
//   * a done campaign's `results` equal sweep_json/sweep_csv of the serial
//     run, and every other reply matches the modelled campaign the request
//     addressed when the core read it;
//   * each request gets exactly one reply, in order per connection,
//     unless the connection closed first;
//   * a subscription sees each event once, in order from event 0, then
//     one `done` with the final counts;
//   * nothing is sent after a close;
//   * a parked wait is answered only after its campaign left running;
//   * a submit attaches only to a running, uncancelled campaign or a done
//     one, and a digest has at most one live campaign;
//   * a malformed frame gets its typed error and the connection stays
//     open; an over-long line gets frame_too_long and a close;
//   * after stop(), nothing runs, every connection is closed and the seam
//     is silent.
//
// A failure names its seed and prints the tail of its event trace. To
// replay one schedule alone, set kReplaySeed to it and run
// --gtest_filter='Seeds/ServeSim*'.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "frame_mutator.hpp"
#include "psync/common/calendar_queue.hpp"
#include "psync/common/check.hpp"
#include "psync/common/config.hpp"
#include "psync/common/rng.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/driver/workload.hpp"
#include "psync/serve/cache.hpp"
#include "psync/serve/core.hpp"
#include "psync/serve/protocol.hpp"
#include "rng_draws.hpp"

namespace psync::serve {
namespace {

using driver::CampaignEvent;
using driver::CampaignState;
using driver::RunRecord;

/// Nonzero: run only this seed (in whichever block holds it).
constexpr std::uint64_t kReplaySeed = 0;
constexpr std::uint64_t kSeedsPerBlock = 500;
constexpr std::uint64_t kBlocks = 4;

constexpr std::size_t kMaxLine = 400;
constexpr std::size_t kDefaultThreads = 3;
constexpr const char* kCacheDir = "simcache";

class SimWorkload final : public driver::Workload {
 public:
  std::string name() const override { return "serve_sim"; }
  RunRecord run(const driver::RunPoint& pt, core::Scratch&) const override {
    RunRecord rec;
    rec.metrics.push_back(
        {"val", static_cast<double>(pt.seed % 1000003ULL) / 997.0, -1});
    return rec;
  }
};

/// One submittable spec: its INI text and, when valid, its frozen form
/// and serial run.
struct Truth {
  std::string ini;
  bool valid = false;
  std::uint64_t digest = 0;
  std::size_t points = 0;
  driver::SweepResult serial;
  std::string json;
  std::string csv;
};

const std::vector<Truth>& truths() {
  static const std::vector<Truth> all = [] {
    driver::register_workload(std::make_unique<SimWorkload>());
    const char* inis[] = {
        "[experiment]\nkind = serve_sim\n[sweep]\nt_p = 1 2 3\n",
        "[experiment]\nkind = serve_sim\n[sweep]\nt_p = 2 3 4 5\n",
        "[experiment]\nkind = serve_sim\ninput_seed = 9\n[sweep]\nt_p = 1 2\n",
        "[experiment]\nkind = serve_sim\n[sweep]\nno_such_knob = 1\n",
    };
    std::vector<Truth> out;
    for (const char* ini : inis) {
      Truth t;
      t.ini = ini;
      try {
        const driver::ExperimentSpec spec =
            driver::spec_from_config(IniConfig::parse(ini));
        const driver::FrozenSpec frozen = driver::Session::freeze(spec);
        t.digest = frozen.digest;
        t.points = frozen.points.size();
        t.serial = driver::Session().run(spec);
        t.json = driver::sweep_json(t.serial);
        t.csv = driver::sweep_csv(t.serial);
        t.valid = true;
      } catch (const SimulationError&) {
      }
      out.push_back(std::move(t));
    }
    return out;
  }();
  return all;
}

const Truth* truth_of(std::uint64_t digest) {
  for (const Truth& t : truths()) {
    if (t.valid && t.digest == digest) return &t;
  }
  return nullptr;
}

struct Coverage {
  std::size_t attaches = 0;
  std::size_t reruns_after_cancel = 0;
  std::size_t parked_waits = 0;
  std::size_t parked_submits = 0;
  std::size_t midstream_disconnects = 0;
  std::size_t restarts = 0;
  std::size_t malformed = 0;
  std::size_t too_long = 0;
  std::size_t done_results = 0;
  std::size_t subscriptions = 0;
};

/// A modelled campaign.
struct Run {
  std::uint64_t digest = 0;
  const Truth* truth = nullptr;
  int gen = 0;
  CampaignState state = CampaignState::kRunning;
  bool cancel_requested = false;
  std::vector<CampaignEvent> events;
  driver::CampaignProgress progress;
  std::vector<std::size_t> order;  // points still to emit, in drawn order
  std::size_t next = 0;
  std::size_t fail_after = SIZE_MAX;  // emitted points before a failure
};

/// One request line a client sent, and what the core's reply must be.
struct Req {
  std::string line;
  std::size_t end = 0;     // stream offset one past its '\n'
  FrameError err = FrameError::kNone;
  Request parsed;
  bool too_long = false;
  const Truth* spec = nullptr;  // a submit's spec (null: invalid config)
  bool active = false;          // the core has read it
  RunId run = 0;                // the addressed campaign when read
  std::size_t events_seen = 0;  // a subscription's frames so far
};

struct Conn {
  int gen = 0;
  bool open = true;
  bool expect_close = false;
  std::string stream;  // every byte the client wrote
  std::size_t delivered = 0;
  bool deliver_pending = false;
  std::deque<Req> pending;  // sent and not yet fully answered
  std::size_t budget = 0;   // requests left to send
};

enum class Ev { kClientStep, kDeliver, kRunStep, kWake, kRestart, kStop };

struct Event {
  Ev kind = Ev::kWake;
  std::uint64_t id = 0;  // conn or run
};

class Sim final : public ServeIo {
 public:
  Sim(std::uint64_t seed, Coverage* cov) : rng_(seed), cov_(cov) {}

  std::string run();
  std::string trace_tail() const {
    std::ostringstream os;
    const std::size_t from = trace_.size() > 30 ? trace_.size() - 30 : 0;
    for (std::size_t i = from; i < trace_.size(); ++i) os << trace_[i] << '\n';
    return os.str();
  }

  // ServeIo
  void send(ConnId id, const std::string& line) override;
  void close(ConnId id) override;
  RunId start(driver::FrozenSpec frozen) override;
  void cancel(RunId run) override;
  CampaignState state(RunId run) override { return run_at(run).state; }
  driver::CampaignProgress progress(RunId run) override {
    return run_at(run).progress;
  }
  std::size_t events_since(RunId run, std::size_t cursor,
                           std::vector<CampaignEvent>* out) override {
    const Run& r = run_at(run);
    for (std::size_t i = cursor; i < r.events.size(); ++i) {
      out->push_back(r.events[i]);
    }
    return r.events.size();
  }
  const driver::SweepResult& result(RunId run) override {
    const Run& r = run_at(run);
    if (r.state == CampaignState::kRunning) {
      fail("result() of running campaign " + std::to_string(run));
    }
    if (r.state != CampaignState::kDone) {
      throw SimulationError(std::string("simulated campaign ") +
                            driver::to_string(r.state));
    }
    return r.truth->serial;
  }
  void request_shutdown() override { note("shutdown requested"); }

 private:
  void fail(const std::string& why) {
    if (failure_.empty()) failure_ = "t=" + std::to_string(now_) + ": " + why;
  }
  void note(const std::string& what) {
    trace_.push_back("t=" + std::to_string(now_) + " " + what);
  }
  void push(std::int64_t delay, Ev kind, std::uint64_t id = 0) {
    queue_.push(now_ + delay, Event{kind, id});
  }
  Run& run_at(RunId run) {
    const auto it = runs_.find(run);
    if (it == runs_.end() || it->second.gen != gen_) {
      fail("the core named campaign " + std::to_string(run) +
           " of no live generation");
      static Run dead;
      dead.state = CampaignState::kFailed;
      return dead;
    }
    return it->second;
  }
  Conn* live_conn(ConnId id, const char* what);

  void open_conn();
  void client_step(ConnId id);
  void write_request(Conn& c);
  void deliver(ConnId id);
  void schedule_deliveries();
  void activate_front(Conn& c);
  void run_step(RunId run);
  void end_run(Run& r, CampaignState state);
  void wake(std::int64_t delay) { push(delay, Ev::kWake); }
  void restart();
  void check_reply(ConnId id, Conn& c, const std::string& line);
  void finish_request(Conn& c);

  Rng rng_;
  Coverage* cov_;
  std::string failure_;
  std::vector<std::string> trace_;
  std::int64_t now_ = 0;
  CalendarQueue<Event> queue_;
  int gen_ = 0;
  ServerOptions opts_;
  std::unique_ptr<ServeCore> core_;
  bool in_wake_ = false;
  bool stopping_ = false;
  bool silent_ = false;  // after stop() completed: the seam must stay quiet
  std::map<ConnId, Conn> conns_;
  ConnId next_conn_ = 1;
  std::map<RunId, Run> runs_;
  RunId next_run_ = 1;
  std::map<std::uint64_t, RunId> latest_;  // digest -> newest run this gen
  std::map<std::uint64_t, std::vector<std::size_t>> journal_;  // by digest
  std::int64_t stop_at_ = 0;
};

Conn* Sim::live_conn(ConnId id, const char* what) {
  if (silent_) fail(std::string(what) + " after stop() completed");
  const auto it = conns_.find(id);
  if (it == conns_.end() || it->second.gen != gen_ || !it->second.open) {
    fail(std::string(what) + " on closed connection " + std::to_string(id));
    return nullptr;
  }
  return &it->second;
}

void Sim::open_conn() {
  const ConnId id = next_conn_++;
  Conn& c = conns_[id];
  c.gen = gen_;
  c.budget = 2 + next_below(rng_, 9);
  note("open conn " + std::to_string(id));
  core_->on_open(id);
  push(next_range(rng_, 0, 6), Ev::kClientStep, id);
}

void Sim::write_request(Conn& c) {
  const auto& specs = truths();
  auto campaign_line = [&](const char* op, const std::string& extra) {
    std::uint64_t digest = 0x0123456789abcdefULL;  // unknown to the daemon
    if (next_below(rng_, 12) != 0) digest = specs[next_below(rng_, 3)].digest;
    return std::string("{\"op\":\"") + op + "\",\"campaign\":" +
           json_string(campaign_id(digest)) + extra + "}";
  };
  auto submit_line = [&](const Truth& t) {
    std::string line = "{\"op\":\"submit\",\"config\":" + json_string(t.ini);
    if (next_below(rng_, 4) == 0) {
      line += ",\"threads\":" + std::to_string(1 + next_below(rng_, 4));
    }
    return line + "}";
  };
  std::vector<std::string> lines;
  const std::uint64_t pick = next_below(rng_, 100);
  if (pick < 28) {
    lines.push_back(submit_line(specs[next_below(rng_, specs.size())]));
  } else if (pick < 38) {
    lines.push_back(campaign_line("status", ""));
  } else if (pick < 56) {
    std::string extra;
    if (next_below(rng_, 2) == 0) extra += ",\"format\":\"csv\"";
    if (next_below(rng_, 5) == 0) extra += ",\"wait\":false";
    lines.push_back(campaign_line("results", extra));
  } else if (pick < 68) {
    lines.push_back(campaign_line("subscribe", ""));
  } else if (pick < 80) {
    // Cancel, then (mostly) resubmit at once: the resubmit finds the
    // cancelled campaign still running and must wait it out.
    const Truth& t = specs[next_below(rng_, 3)];
    lines.push_back("{\"op\":\"cancel\",\"campaign\":" +
                    json_string(campaign_id(t.digest)) + "}");
    if (next_below(rng_, 3) != 0) lines.push_back(submit_line(t));
  } else if (pick < 93) {
    // A ProtocolFuzz mutant that parse_request rejects (and that stays
    // one line).
    for (int tries = 0; tries < 20; ++tries) {
      const std::string base =
          next_below(rng_, 2) == 0
              ? submit_line(specs[next_below(rng_, specs.size())])
              : campaign_line("results", "");
      std::string m = mutate(rng_, base);
      Request req;
      if (m.find('\n') != std::string::npos) continue;
      if (parse_request(m, &req) == FrameError::kNone) continue;
      lines.push_back(m);
      break;
    }
    if (lines.empty()) lines.push_back("{\"op\":");
  } else if (pick < 98) {
    lines.push_back(std::string(kMaxLine + 1 + next_below(rng_, kMaxLine),
                                'x'));
  } else {
    lines.push_back("{\"op\":\"shutdown\"}");
  }
  for (const std::string& line : lines) {
    Req r;
    r.line = line;
    r.too_long = line.size() > kMaxLine;
    r.err = parse_request(line, &r.parsed);
    if (r.err == FrameError::kNone && r.parsed.op == Op::kSubmit) {
      for (const Truth& t : specs) {
        if (t.ini == r.parsed.config) r.spec = t.valid ? &t : nullptr;
      }
    }
    c.stream += line;
    c.stream.push_back('\n');
    r.end = c.stream.size();
    c.pending.push_back(std::move(r));
  }
}

void Sim::client_step(ConnId id) {
  const auto it = conns_.find(id);
  if (it == conns_.end() || !it->second.open || stopping_) return;
  Conn& c = it->second;
  if (c.budget == 0 || next_below(rng_, 25) == 0) {
    // Hang up, possibly with a request in flight or a live subscription.
    if (!c.pending.empty() && c.pending.front().active) {
      ++cov_->midstream_disconnects;
    }
    note("client closes conn " + std::to_string(id));
    c.open = false;
    core_->on_closed(id);
    if (next_below(rng_, 3) != 0) open_conn();
    return;
  }
  --c.budget;
  write_request(c);
  note("conn " + std::to_string(id) + " writes " +
       json_string(c.pending.back().line.substr(0, 60)));
  schedule_deliveries();
  push(next_range(rng_, 0, 15), Ev::kClientStep, id);
}

void Sim::schedule_deliveries() {
  for (auto& [id, c] : conns_) {
    if (!c.open || c.gen != gen_ || c.deliver_pending) continue;
    if (c.delivered == c.stream.size() || !core_->reading(id)) continue;
    c.deliver_pending = true;
    push(next_range(rng_, 0, 3), Ev::kDeliver, id);
  }
}

void Sim::activate_front(Conn& c) {
  if (c.pending.empty()) return;
  Req& r = c.pending.front();
  if (r.active || c.delivered < r.end) return;
  r.active = true;
  std::uint64_t digest = 0;
  if (r.err == FrameError::kNone && r.parsed.has_campaign) {
    digest = r.parsed.campaign;
  } else if (r.spec != nullptr) {
    digest = r.spec->digest;
  }
  const auto it = latest_.find(digest);
  r.run = it == latest_.end() ? 0 : it->second;
}

void Sim::deliver(ConnId id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  c.deliver_pending = false;
  if (!c.open || c.gen != gen_ || stopping_ || !core_->reading(id)) return;
  const std::size_t left = c.stream.size() - c.delivered;
  if (left == 0) return;
  std::size_t n = left;
  const std::uint64_t how = next_below(rng_, 4);
  if (how == 0) n = 1;
  if (how == 1 || how == 2) n = std::min<std::size_t>(left, 1 + next_below(rng_, 64));
  const std::string chunk = c.stream.substr(c.delivered, n);
  c.delivered += n;
  activate_front(c);
  core_->on_bytes(id, chunk.data(), chunk.size());
  schedule_deliveries();
}

void Sim::finish_request(Conn& c) {
  c.pending.pop_front();
  activate_front(c);
}

void Sim::check_reply(ConnId id, Conn& c, const std::string& line) {
  const std::string shown = "conn " + std::to_string(id) + " reply " + line.substr(0, 160);
  if (c.pending.empty()) {
    fail("reply with no request outstanding: " + shown);
    return;
  }
  Req& r = c.pending.front();
  std::string error;
  const bool is_error = find_string_field(line, "error", &error);
  if (r.too_long) {
    if (error != "frame_too_long") fail("over-long line answered: " + shown);
    ++cov_->too_long;
    c.expect_close = true;
    finish_request(c);
    return;
  }
  if (!r.active) {
    fail("reply to a request the core has not read: " + shown);
    return;
  }
  if (r.err != FrameError::kNone) {
    if (error != to_string(r.err)) fail("malformed frame: " + shown);
    ++cov_->malformed;
    finish_request(c);
    return;
  }
  const Run* run = r.run != 0 ? &run_at(r.run) : nullptr;
  const bool addressed = r.parsed.op != Op::kSubmit && r.parsed.op != Op::kShutdown;
  if (addressed && run == nullptr) {
    if (error != "unknown_campaign") fail("expected unknown_campaign: " + shown);
    finish_request(c);
    return;
  }
  switch (r.parsed.op) {
    case Op::kSubmit: {
      if (r.spec == nullptr) {
        if (error != "invalid_spec") fail("expected invalid_spec: " + shown);
        break;
      }
      if (is_error) {
        if (error != "shutting_down" || !stopping_) fail("submit refused: " + shown);
        break;
      }
      bool attached = false;
      std::uint64_t points = 0;
      std::string cid;
      if (!find_bool_field(line, "attached", &attached) ||
          !find_u64_field(line, "points", &points) ||
          !find_string_field(line, "campaign", &cid) ||
          cid != campaign_id(r.spec->digest) || points != r.spec->points) {
        fail("bad submit reply: " + shown);
        break;
      }
      const auto it = latest_.find(r.spec->digest);
      const RunId now_run = it == latest_.end() ? 0 : it->second;
      if (in_wake_) ++cov_->parked_submits;
      if (attached) {
        ++cov_->attaches;
        const Run& a = run_at(now_run);
        if (now_run == 0 ||
            !(a.state == CampaignState::kDone ||
              (a.state == CampaignState::kRunning && !a.cancel_requested))) {
          fail("attached to a campaign that is neither running and "
               "uncancelled nor done: " + shown);
        }
      } else if (now_run == r.run) {
        fail("attached:false but no campaign started: " + shown);
      }
      break;
    }
    case Op::kStatus: {
      std::string st;
      std::uint64_t completed = 0;
      if (!find_string_field(line, "state", &st) ||
          st != driver::to_string(run->state) ||
          !find_u64_field(line, "completed", &completed) ||
          completed != run->events.size()) {
        fail("status disagrees with the campaign: " + shown);
      }
      break;
    }
    case Op::kResults: {
      if (error == "not_finished") {
        if (r.parsed.wait || run->state != CampaignState::kRunning) {
          fail("not_finished on a waiting or finished results: " + shown);
        }
        break;
      }
      if (run->state == CampaignState::kRunning) {
        fail("results answered while its campaign runs: " + shown);
        break;
      }
      if (in_wake_) ++cov_->parked_waits;
      if (run->state != CampaignState::kDone) {
        if (error != "campaign_failed") fail("expected campaign_failed: " + shown);
        break;
      }
      std::string body;
      if (!find_string_field(line, "body", &body)) {
        fail("results of a done campaign without a body: " + shown);
        break;
      }
      const std::string& want =
          r.parsed.format == "json" ? run->truth->json : run->truth->csv;
      if (body != want) fail("results differ from the serial run: " + shown);
      ++cov_->done_results;
      break;
    }
    case Op::kSubscribe: {
      std::string event;
      if (!find_string_field(line, "event", &event)) {
        fail("subscription frame without event: " + shown);
        break;
      }
      if (event == "point") {
        std::uint64_t index = 0;
        std::string source;
        if (r.events_seen >= run->events.size() ||
            !find_u64_field(line, "index", &index) ||
            index != run->events[r.events_seen].index ||
            !find_string_field(line, "source", &source) ||
            source != driver::to_string(run->events[r.events_seen].source)) {
          fail("subscription event out of order or repeated (seen " +
               std::to_string(r.events_seen) + "): " + shown);
        }
        ++r.events_seen;
        return;  // not final
      }
      std::string st;
      std::uint64_t completed = 0;
      if (event != "done" || run->state == CampaignState::kRunning ||
          !find_string_field(line, "state", &st) ||
          st != driver::to_string(run->state) ||
          !find_u64_field(line, "completed", &completed) ||
          completed != run->events.size() ||
          r.events_seen != run->events.size()) {
        fail("subscription ended without every event or early: " + shown);
      }
      ++cov_->subscriptions;
      break;
    }
    case Op::kCancel: {
      bool cancelled = false;
      if (!find_bool_field(line, "cancelled", &cancelled) || !cancelled ||
          !run->cancel_requested) {
        fail("cancel reply without a cancel: " + shown);
      }
      break;
    }
    case Op::kShutdown: {
      bool shutdown = false;
      if (!find_bool_field(line, "shutdown", &shutdown)) {
        fail("bad shutdown reply: " + shown);
      }
      c.expect_close = true;
      break;
    }
  }
  finish_request(c);
}

void Sim::send(ConnId id, const std::string& line) {
  Conn* c = live_conn(id, "send");
  if (c == nullptr) return;
  if (c->expect_close) fail("send after a closing reply on conn " + std::to_string(id));
  check_reply(id, *c, line);
}

void Sim::close(ConnId id) {
  Conn* c = live_conn(id, "close");
  if (c == nullptr) return;
  note("core closes conn " + std::to_string(id));
  if (!c->expect_close && !stopping_) {
    fail("conn " + std::to_string(id) + " closed without cause");
  }
  for (const Req& r : c->pending) {
    // A closing reply (frame_too_long, shutdown) drops what follows it;
    // stop() must answer every request the core has read.
    if (r.active && !c->expect_close) {
      fail("conn " + std::to_string(id) + " closed with request " +
           json_string(r.line.substr(0, 60)) + " unanswered");
    }
  }
  c->open = false;
}

RunId Sim::start(driver::FrozenSpec frozen) {
  if (silent_ || stopping_) fail("start() during stop");
  const Truth* t = truth_of(frozen.digest);
  if (t == nullptr) {
    fail("start() of an unknown spec");
    return 0;
  }
  if (frozen.spec.journal_path !=
          std::string(kCacheDir) + "/" + campaign_journal_name(frozen.digest) ||
      !frozen.spec.resume) {
    fail("campaign started without its cache journal and resume");
  }
  if (frozen.spec.threads == 0) fail("campaign started without threads");
  const auto prev = latest_.find(frozen.digest);
  if (prev != latest_.end()) {
    const Run& old = runs_.at(prev->second);
    if (old.state == CampaignState::kRunning) {
      fail("second live campaign for one digest");
    } else if (old.state == CampaignState::kDone) {
      fail("a done campaign started again");
    } else if (old.state == CampaignState::kCancelled) {
      ++cov_->reruns_after_cancel;
    }
  }
  const RunId id = next_run_++;
  Run& r = runs_[id];
  r.digest = frozen.digest;
  r.truth = t;
  r.gen = gen_;
  r.progress.total = t->points;
  std::vector<char> done(t->points, 0);
  for (const std::size_t idx : journal_[frozen.digest]) {
    CampaignEvent ev;
    ev.index = idx;
    ev.source = CampaignEvent::Source::kResume;
    ev.record = t->serial.records[idx];
    r.events.push_back(ev);
    ++r.progress.completed;
    ++r.progress.resumed;
    done[idx] = 1;
  }
  for (std::size_t i = 0; i < t->points; ++i) {
    if (done[i] == 0) r.order.push_back(i);
  }
  shuffle(rng_, r.order);
  if (!r.order.empty() && next_below(rng_, 8) == 0) {
    r.fail_after = next_below(rng_, r.order.size());
  }
  latest_[frozen.digest] = id;
  note("start run " + std::to_string(id) + " of " + campaign_id(frozen.digest));
  push(next_range(rng_, 0, 6), Ev::kRunStep, id);
  return id;
}

void Sim::cancel(RunId run) {
  Run& r = run_at(run);
  r.cancel_requested = true;
  note("cancel run " + std::to_string(run));
  if (r.state == CampaignState::kRunning) {
    push(next_range(rng_, 1, 10), Ev::kRunStep, run);
  }
}

void Sim::end_run(Run& r, CampaignState state) {
  r.state = state;
  note(std::string("run ends ") + driver::to_string(state));
  wake(next_range(rng_, 0, 2));
}

void Sim::run_step(RunId id) {
  const auto it = runs_.find(id);
  if (it == runs_.end() || it->second.gen != gen_) return;  // killed
  Run& r = it->second;
  if (r.state != CampaignState::kRunning) return;
  if (r.cancel_requested) {
    end_run(r, r.next < r.order.size() ? CampaignState::kCancelled
                                       : CampaignState::kDone);
    return;
  }
  if (r.next == r.fail_after) {
    end_run(r, CampaignState::kFailed);
    return;
  }
  if (r.next == r.order.size()) {
    end_run(r, CampaignState::kDone);
    return;
  }
  const std::size_t idx = r.order[r.next++];
  CampaignEvent ev;
  ev.index = idx;
  ev.source = CampaignEvent::Source::kRun;
  ev.record = r.truth->serial.records[idx];
  r.events.push_back(ev);
  ++r.progress.completed;
  ++r.progress.executed;
  std::vector<std::size_t>& journal = journal_[r.digest];
  if (std::find(journal.begin(), journal.end(), idx) == journal.end()) {
    journal.push_back(idx);
  }
  wake(next_range(rng_, 0, 2));
  push(next_range(rng_, 0, 8), Ev::kRunStep, id);
}

void Sim::restart() {
  ++cov_->restarts;
  note("restart");
  // The daemon dies: its connections drop, its campaigns die with it, the
  // journals stay.
  for (auto& [id, c] : conns_) c.open = false;
  ++gen_;
  latest_.clear();
  core_ = std::make_unique<ServeCore>(opts_, this);
  const std::size_t clients = 1 + next_below(rng_, 3);
  for (std::size_t i = 0; i < clients; ++i) open_conn();
}

std::string Sim::run() {
  opts_.socket_path = "sim.sock";
  opts_.cache_dir = kCacheDir;
  opts_.threads = kDefaultThreads;
  opts_.max_line_bytes = kMaxLine;
  core_ = std::make_unique<ServeCore>(opts_, this);
  const std::size_t clients = 2 + next_below(rng_, 3);
  for (std::size_t i = 0; i < clients; ++i) open_conn();
  stop_at_ = next_range(rng_, 150, 400);
  const std::uint64_t restarts = next_below(rng_, 3);
  for (std::uint64_t i = 0; i < restarts; ++i) {
    push(next_range(rng_, 20, stop_at_ - 10), Ev::kRestart);
  }
  push(stop_at_, Ev::kStop);

  std::vector<Event> due;
  while (failure_.empty()) {
    const std::int64_t key = queue_.next_key(now_);
    if (key < 0) break;
    now_ = std::max(now_, key);
    due.clear();
    queue_.pop_due(now_, &due);
    for (const Event& ev : due) {
      if (!failure_.empty()) break;
      switch (ev.kind) {
        case Ev::kClientStep:
          client_step(ev.id);
          break;
        case Ev::kDeliver:
          deliver(ev.id);
          break;
        case Ev::kRunStep:
          run_step(ev.id);
          break;
        case Ev::kWake:
          in_wake_ = true;
          core_->on_campaigns_changed();
          in_wake_ = false;
          schedule_deliveries();
          break;
        case Ev::kRestart:
          if (!stopping_) restart();
          break;
        case Ev::kStop:
          note("stop");
          stopping_ = true;
          core_->stop();
          break;
      }
    }
  }
  if (!failure_.empty()) return failure_;
  if (!stopping_) return "the schedule never stopped";
  if (!core_->stopped()) return "stop() never finished: a connection is open";
  for (const auto& [id, r] : runs_) {
    if (r.gen == gen_ && r.state == CampaignState::kRunning) {
      return "campaign " + std::to_string(id) + " still runs after stop()";
    }
  }
  for (const auto& [id, c] : conns_) {
    if (c.gen == gen_ && c.open) {
      return "conn " + std::to_string(id) + " left open after stop()";
    }
  }
  silent_ = true;
  core_->on_campaigns_changed();
  core_->stop();
  return failure_;
}

std::string run_seed(std::uint64_t seed, Coverage* cov) {
  Sim sim(seed, cov);
  const std::string failure = sim.run();
  if (failure.empty()) return failure;
  return "seed " + std::to_string(seed) + ": " + failure +
         "\nlast events:\n" + sim.trace_tail();
}

class ServeSim : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServeSim, SeededSchedulesKeepTheDaemonsRules) {
  ASSERT_TRUE(truths()[0].valid && truths()[1].valid && truths()[2].valid);
  ASSERT_FALSE(truths()[3].valid);
  Coverage cov;
  const std::uint64_t first = GetParam() * kSeedsPerBlock + 1;
  for (std::uint64_t seed = first; seed < first + kSeedsPerBlock; ++seed) {
    if (kReplaySeed != 0 && seed != kReplaySeed) continue;
    const std::string failure = run_seed(seed, &cov);
    if (!failure.empty()) FAIL() << failure;
  }
  if (kReplaySeed != 0) return;
  // The block really exercised the paths it claims to.
  EXPECT_GT(cov.attaches, 0u);
  EXPECT_GT(cov.reruns_after_cancel, 0u);
  EXPECT_GT(cov.parked_waits, 0u);
  EXPECT_GT(cov.parked_submits, 0u);
  EXPECT_GT(cov.midstream_disconnects, 0u);
  EXPECT_GT(cov.restarts, 0u);
  EXPECT_GT(cov.malformed, 0u);
  EXPECT_GT(cov.too_long, 0u);
  EXPECT_GT(cov.done_results, 0u);
  EXPECT_GT(cov.subscriptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeSim,
                         ::testing::Range<std::uint64_t>(0, kBlocks));

}  // namespace
}  // namespace psync::serve
