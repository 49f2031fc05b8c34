// serve_mix: an in-process campaign daemon driven open-loop.
//
// One generator thread sends submissions at fixed due times over at most
// four Unix-socket connections, whether or not earlier ones finished (an
// open loop: independent users), and times every request from its due
// time, so a stall also charges the requests queued behind it. Each
// request is submit -> subscribe (until "done") -> results.
//
// Every block of ten submissions holds four fresh 8-point 256x256 fft2d
// campaigns (cache misses: journal writes), four exact resubmissions of an
// earlier campaign (attaches, or journal resumes for campaigns that
// predate the daemon restart) and two grids that extend an earlier fresh
// grid's slowest axis (eight cached points plus four new ones), always in
// the same order. The seed picks the input seeds and which earlier
// campaign each resubmission or extension names.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <map>

#include "psync/common/config.hpp"
#include "psync/common/rng.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/serve/protocol.hpp"
#include "psync/serve/server.hpp"
#include "workloads.hpp"

namespace psync_bench {
namespace {

using psync::serve::find_bool_field;
using psync::serve::find_string_field;
using psync::serve::find_u64_field;
using psync::serve::json_string;

constexpr double kRatePerS = 10.0;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kWarmupCampaigns = 3;
/// Submissions whose bodies form the digest in expected/ (a fixed prefix,
/// so the digest does not depend on how long the run was).
constexpr std::size_t kDigestPrefix = 10;
/// Latency limit for serve.slo_met_frac: five times the unloaded
/// result_ms.p50 (one submission per second) on the reference host.
constexpr double kSloLimitMs = 5.0 * 90.0;

enum class Kind { kFresh, kResubmit, kExtend };

struct CampaignSpec {
  std::uint64_t input_seed = 0;
  bool extended = false;  // grid carries the third processors value
  [[nodiscard]] std::string ini() const {
    return "[experiment]\nkind = fft2d\ninput_seed = " + std::to_string(input_seed) +
           "\n[machine]\nrows = 256\ncols = 256\nwaveguide_gbps = 320\n"
           "[sweep]\nprocessors = " + (extended ? "8 16 32" : "8 16") +
           "\nblocks = 1 2 4 8\n";
  }
};

struct Request {
  Kind kind = Kind::kFresh;
  std::size_t spec = 0;  // index into the spec table
  double due = 0.0;
  double sent = 0.0;
  double ack = 0.0;
  double first_event = 0.0;
  double results_sent = 0.0;
  double body_at = 0.0;
  bool done = false;
  bool ok = false;
  bool attached = false;
  std::string campaign;
  std::string error;
  std::uint64_t executed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t resumed = 0;
  std::string body;
};

/// The class of every submission, repeating: fresh campaigns evenly spaced,
/// so how much work overlaps is the same for every seed.
constexpr Kind kBlock[] = {Kind::kFresh,    Kind::kResubmit, Kind::kExtend, Kind::kFresh,
                           Kind::kResubmit, Kind::kFresh,    Kind::kResubmit, Kind::kExtend,
                           Kind::kFresh,    Kind::kResubmit};
/// The schedule runs in segments of this many submissions with a quiet gap
/// between them: in-flight requests drain and a calibration runs there, so
/// the loop is calibrated from inside as well as from both ends. The gaps
/// are part of the schedule, so the loop stays open.
constexpr std::size_t kSegment = 50;
constexpr double kGapS = 0.5;
/// Resubmissions and extensions name only campaigns submitted at least
/// this many submissions earlier (two seconds at the full rate), so they
/// read a finished campaign or its cached points rather than racing it.
constexpr std::size_t kSettled = 20;

/// The seeded submission plan. `specs` holds the warm-up campaigns on
/// entry; fresh and extended campaigns are appended as they are planned.
std::vector<Request> make_plan(std::uint64_t seed, std::size_t n,
                               std::vector<CampaignSpec>* specs) {
  psync::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::size_t warm = specs->size();
  std::vector<bool> extended_base(warm, false);
  std::vector<std::size_t> specs_after;  // spec count once submission i is planned
  std::vector<Request> plan;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t settled = i >= kSettled ? specs_after[i - kSettled] : warm;
    std::vector<std::size_t> bases;
    for (std::size_t s = 0; s < settled; ++s) {
      if (!(*specs)[s].extended && !extended_base[s]) bases.push_back(s);
    }
    Kind k = kBlock[i % std::size(kBlock)];
    if (k == Kind::kExtend && bases.empty()) k = Kind::kFresh;
    Request r;
    r.kind = k;
    if (k == Kind::kFresh) {
      specs->push_back({rng.next_u64() >> 33, false});
    } else if (k == Kind::kResubmit) {
      r.spec = rng.next_u64() % settled;
    } else {
      const std::size_t base = bases[rng.next_u64() % bases.size()];
      extended_base[base] = true;
      specs->push_back({(*specs)[base].input_seed, true});
    }
    if (k != Kind::kResubmit) {
      r.spec = specs->size() - 1;
      extended_base.push_back(false);
    }
    plan.push_back(r);
    specs_after.push_back(specs->size());
  }
  return plan;
}

// --- client side ------------------------------------------------------------

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

struct Conn {
  enum class State { kIdle, kAck, kEvents, kBody };
  int fd = -1;
  State state = State::kIdle;
  std::size_t req = 0;
  std::string buf;
};

std::string submit_frame(const std::string& ini) {
  return "{\"op\":\"submit\",\"config\":" + json_string(ini) + "}";
}

/// Blocking submit + results round trip (warm-up and reference checks).
std::string submit_and_wait(const std::string& socket, const std::string& ini) {
  const int fd = connect_unix(socket);
  if (fd < 0) return {};
  std::string buf;
  auto read_line = [&](std::string* line) {
    for (;;) {
      const auto nl = buf.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf, 0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  };
  std::string line;
  std::string id;
  std::string body;
  if (send_all(fd, submit_frame(ini)) && read_line(&line) &&
      find_string_field(line, "campaign", &id) &&
      send_all(fd, "{\"op\":\"results\",\"campaign\":" + json_string(id) + "}") &&
      read_line(&line)) {
    (void)find_string_field(line, "body", &body);
  }
  ::close(fd);
  return body;
}

class ServeMix final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "serve_mix"; }
  // About one core of campaign work on average, with bursts of two or three.
  [[nodiscard]] int cores() const override { return 2; }
  // Each set-up runs a warm-up daemon with three campaigns.
  [[nodiscard]] int setups() const override { return 3; }

  void measure(RunContext& ctx, RunData* out) override {
    // Requests are divided by the median slowdown of the calibrations
    // around the loop: three before, one in each gap, three after. Single
    // calibrations bracketing one segment proved noisier than the median.
    std::vector<double> cals = {run_setups(ctx, out), calibrate(ctx, out), calibrate(ctx, out)};
    const std::size_t n =
        ctx.opts.smoke ? kDigestPrefix
                       : std::max<std::size_t>(kDigestPrefix,
                                               static_cast<std::size_t>(kRatePerS * ctx.seconds));
    plan_ = make_plan(ctx.opts.seed, n, &specs_);
    const double cpu0 = cpu_times().total();
    const double loop_t0 = now_s();
    drive(ctx.opts.smoke ? 4.0 * kRatePerS : kRatePerS, ctx.seconds + 60.0,
          [&] { cals.push_back(calibrate(ctx, out)); });
    loop_s_ = now_s() - loop_t0;
    out->cpu_s = cpu_times().total() - cpu0;
    for (int i = 0; i < 3; ++i) cals.push_back(calibrate(ctx, out));
    const double slow = median(cals);

    for (const auto& r : plan_) {
      ++out->attempted;
      if (!r.ok) {
        ++out->failed;
        if (out->errors.size() < 5) out->errors.push_back("serve_mix request: " + r.error);
        continue;
      }
      out->points += static_cast<double>(specs_[r.spec].extended ? 12 : 8);
      // The gated latencies are those of the cache misses. The classes sit
      // far apart (resubmissions about 1 ms, extensions about half a fresh
      // campaign), so a percentile over the mix would land in the thin
      // lower tail of the fresh campaigns. Every class's latency is in
      // serve.result_ms of the traced run.
      if (r.kind != Kind::kFresh) continue;
      const double latency = r.body_at - r.due;
      out->pass_s.push_back(latency);
      out->pass_cal.push_back(latency / slow);
    }
    // Per simulated point: cache and journal reads are what make serving
    // cheaper, not something to divide by.
    const auto t = totals();
    if (t.executed > 0) {
      out->cpu_cal_per_point.push_back(out->cpu_s / static_cast<double>(t.executed) / slow);
    }
    verify(out);
    if (ctx.traced) {
      record_spans(*ctx.tracer);
      probe_journal(ctx);
    }
  }

  void layer_metrics(const RunContext& ctx, const RunData& d, Metrics* out) override {
    std::vector<double> ack, results, first, result, late;
    for (const auto& r : plan_) {
      if (!r.ok) continue;
      ack.push_back((r.ack - r.sent) * 1e3);
      results.push_back((r.body_at - r.results_sent) * 1e3);
      first.push_back((r.first_event - r.due) * 1e3);
      result.push_back((r.body_at - r.due) * 1e3);
      late.push_back((r.sent - r.due) * 1e3);
    }
    const auto [executed, cached, resumed, attached] = totals();
    std::size_t met = 0;
    for (const double ms : result) met += ms <= kSloLimitMs ? 1 : 0;
    const double attempted = static_cast<double>(std::max<std::size_t>(1, plan_.size()));
    out->push_back({"serve.start_ms", median(start_s_) * 1e3, "ms"});
    out->push_back({"serve.submit_ack_ms.p50", median(ack), "ms"});
    out->push_back({"serve.submit_ack_ms.p90", quantile(ack, 0.9), "ms"});
    out->push_back({"serve.results_ms.p50", median(results), "ms"});
    out->push_back({"serve.results_ms.p90", quantile(results, 0.9), "ms"});
    out->push_back({"serve.first_event_ms.p50", median(first), "ms"});
    out->push_back({"serve.first_event_ms.p90", quantile(first, 0.9), "ms"});
    out->push_back({"serve.result_ms.p50", median(result), "ms"});
    out->push_back({"serve.result_ms.p90", quantile(result, 0.9), "ms"});
    out->push_back({"serve.result_cal.p50", median(d.pass_cal), "s"});
    out->push_back({"serve.slo_met_frac", static_cast<double>(met) / attempted, "ratio"});
    out->push_back({"serve.late_ms.p90", quantile(late, 0.9), "ms"});
    out->push_back({"serve.cache_hit_ratio",
                    cached + executed > 0 ? static_cast<double>(cached) /
                                                static_cast<double>(cached + executed)
                                          : 0.0,
                    "ratio"});
    out->push_back({"serve.attach_frac", static_cast<double>(attached) / attempted, "ratio"});
    out->push_back({"serve.cache_entries",
                    server_ ? static_cast<double>(server_->cache().size()) : 0.0, "count"});
    out->push_back({"driver.points_executed", static_cast<double>(executed), "count"});
    out->push_back({"driver.points_cached", static_cast<double>(cached), "count"});
    out->push_back({"driver.points_resumed", static_cast<double>(resumed), "count"});
    journal_metrics(*ctx.tracer, out);
    out->push_back({"host.calib_ms.p50", median(ctx.cal->totals()) * 1e3, "ms"});
    out->push_back({"host.pass_s.p50", median(d.pass_s), "s"});
    out->push_back({"host.pass_s.p75", quantile(d.pass_s, 0.75), "s"});
    out->push_back({"host.points_per_s", loop_s_ > 0 ? d.points / loop_s_ : 0.0, "1/s"});
    out->push_back({"host.cpu_s_per_point", d.points > 0 ? d.cpu_s / d.points : 0.0, "s"});
    // Every serve span is a client-side timestamp pair taken whether or not
    // the run is traced; the only cost tracing adds is recording them.
    out->push_back({"trace.overhead_frac", loop_s_ > 0 ? record_s_ / loop_s_ : 0.0, "ratio"});
  }

  ~ServeMix() override { stop_server(); }

 protected:
  void setup(const BenchOptions& opts) override {
    stop_server();
    dir_.reset();
    dir_ = std::make_unique<TempDir>(opts.work_dir, "serve");
    specs_.clear();
    psync::Rng rng(opts.seed ^ 0x5e77e5eedULL);
    for (std::size_t i = 0; i < kWarmupCampaigns; ++i) {
      specs_.push_back({rng.next_u64() >> 33, false});
    }
    psync::serve::ServerOptions so;
    so.socket_path = dir_->path() + "/d.sock";
    so.cache_dir = dir_->path() + "/cache";
    {
      // Warm-up daemon: leaves one journal per campaign behind.
      psync::serve::Server warm(so);
      warm.start();
      warm_bodies_.clear();
      for (const auto& s : specs_) warm_bodies_.push_back(submit_and_wait(so.socket_path, s.ini()));
      warm.stop();
    }
    // The daemon the loop talks to restarts from those journals.
    const double t0 = now_s();
    server_ = std::make_unique<psync::serve::Server>(so);
    server_->start();
    start_s_.push_back(now_s() - t0);
    socket_ = so.socket_path;
  }

  PassResult pass(Tracer*) override { return {}; }
  [[nodiscard]] std::uint64_t last_digest() const override { return digest_; }

 private:
  struct Totals {
    std::uint64_t executed = 0;
    std::uint64_t cached = 0;
    std::uint64_t resumed = 0;
    std::size_t attached = 0;
  };

  /// Point sources over the campaigns the loop started (an attached
  /// submission reports its campaign's progress again, so it counts once).
  [[nodiscard]] Totals totals() const {
    Totals t;
    std::map<std::string, bool> seen;
    for (const auto& r : plan_) {
      if (!r.ok) continue;
      if (r.attached) ++t.attached;
      if (r.attached || seen[r.campaign]) continue;
      seen[r.campaign] = true;
      t.executed += r.executed;
      t.cached += r.cache_hits;
      t.resumed += r.resumed;
    }
    return t;
  }

  void stop_server() {
    if (server_) server_->stop();
    server_.reset();
  }

  /// Run the plan open-loop at `rate` submissions/s, calling `at_gap` in
  /// each gap between segments once every earlier request has finished.
  void drive(double rate, double give_up_s, const std::function<void()>& at_gap) {
    std::vector<Conn> conns(kConnections);
    for (auto& c : conns) c.fd = connect_unix(socket_);
    const double t0 = now_s() + 0.01;
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      plan_[i].due = t0 + static_cast<double>(i) / rate +
                     static_cast<double>(i / kSegment) * kGapS;
    }
    std::deque<std::size_t> queue;
    std::size_t next = 0;
    std::size_t finished = 0;
    std::size_t gaps = 0;
    // Request `next` opens a segment whose gap has not been used yet.
    const auto at_boundary = [&] { return next % kSegment == 0 && next / kSegment > gaps; };
    auto fail = [&](Conn& c, const std::string& why) {
      auto& r = plan_[c.req];
      r.error = why;
      r.done = true;
      ++finished;
      c.state = Conn::State::kIdle;
    };
    while (finished < plan_.size() && now_s() - t0 < give_up_s) {
      if (next < plan_.size() && at_boundary() && finished == next) {
        at_gap();
        ++gaps;
      }
      double now = now_s();
      while (next < plan_.size() && plan_[next].due <= now && !at_boundary()) {
        queue.push_back(next++);
      }
      for (auto& c : conns) {
        if (queue.empty()) break;
        if (c.state != Conn::State::kIdle || c.fd < 0) continue;
        c.req = queue.front();
        queue.pop_front();
        auto& r = plan_[c.req];
        r.sent = now_s();
        if (!send_all(c.fd, submit_frame(specs_[r.spec].ini()))) {
          fail(c, "submit send failed");
          continue;
        }
        c.state = Conn::State::kAck;
      }
      std::vector<pollfd> fds;
      for (const auto& c : conns) fds.push_back({c.fd, POLLIN, 0});
      now = now_s();
      int timeout_ms = 50;
      if (next < plan_.size() && !at_boundary()) {
        timeout_ms = std::clamp(static_cast<int>((plan_[next].due - now) * 1e3), 0, 50);
      }
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) break;
      for (std::size_t k = 0; k < conns.size(); ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = conns[k];
        char chunk[65536];
        const ssize_t got = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (got <= 0) {
          if (c.state != Conn::State::kIdle) fail(c, "daemon closed the connection");
          ::close(c.fd);
          c.fd = -1;
          continue;
        }
        c.buf.append(chunk, static_cast<std::size_t>(got));
        for (;;) {
          const auto nl = c.buf.find('\n');
          if (nl == std::string::npos) break;
          const std::string line = c.buf.substr(0, nl);
          c.buf.erase(0, nl + 1);
          on_line(c, line, fail, &finished);
        }
      }
    }
    for (auto& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  template <typename Fail>
  void on_line(Conn& c, const std::string& line, Fail& fail, std::size_t* finished) {
    auto& r = plan_[c.req];
    const double now = now_s();
    switch (c.state) {
      case Conn::State::kIdle:
        return;
      case Conn::State::kAck: {
        bool ok = false;
        r.ack = now;
        if (!find_bool_field(line, "ok", &ok) || !ok ||
            !find_string_field(line, "campaign", &r.campaign)) {
          fail(c, "submit refused: " + line.substr(0, 200));
          return;
        }
        (void)find_bool_field(line, "attached", &r.attached);
        if (!send_all(c.fd, "{\"op\":\"subscribe\",\"campaign\":" + json_string(r.campaign) + "}")) {
          fail(c, "subscribe send failed");
          return;
        }
        c.state = Conn::State::kEvents;
        return;
      }
      case Conn::State::kEvents: {
        std::string event;
        if (!find_string_field(line, "event", &event)) {
          fail(c, "bad subscribe frame: " + line.substr(0, 200));
          return;
        }
        if (event == "point") {
          if (r.first_event == 0.0) r.first_event = now;
          return;
        }
        r.results_sent = now;
        if (r.first_event == 0.0) r.first_event = now;
        if (!send_all(c.fd, "{\"op\":\"results\",\"campaign\":" + json_string(r.campaign) + "}")) {
          fail(c, "results send failed");
          return;
        }
        c.state = Conn::State::kBody;
        return;
      }
      case Conn::State::kBody: {
        r.body_at = now;
        bool ok = false;
        if (!find_bool_field(line, "ok", &ok) || !ok ||
            !find_string_field(line, "body", &r.body)) {
          fail(c, "results refused: " + line.substr(0, 200));
          return;
        }
        (void)find_u64_field(line, "executed", &r.executed);
        (void)find_u64_field(line, "cache_hits", &r.cache_hits);
        (void)find_u64_field(line, "resumed", &r.resumed);
        r.ok = true;
        r.done = true;
        ++*finished;
        c.state = Conn::State::kIdle;
        return;
      }
    }
  }

  /// Bodies agree per spec, a fresh and an extended spec match the
  /// in-process render, and the digest covers the plan's fixed prefix.
  void verify(RunData* out) {
    std::map<std::size_t, const std::string*> first_body;
    for (std::size_t i = 0; i < warm_bodies_.size(); ++i) {
      if (warm_bodies_[i].empty()) {
        ++out->failed;
        out->errors.push_back("serve_mix: warm-up campaign returned no body");
      }
      first_body[i] = &warm_bodies_[i];
    }
    for (const auto& r : plan_) {
      if (!r.ok) continue;
      const auto it = first_body.find(r.spec);
      if (it == first_body.end()) {
        first_body[r.spec] = &r.body;
      } else if (*it->second != r.body) {
        ++out->failed;
        out->errors.push_back("serve_mix: resubmission body differs from the first");
      }
    }
    for (const bool extended : {false, true}) {
      for (const auto& r : plan_) {
        if (!r.ok || specs_[r.spec].extended != extended || r.kind == Kind::kResubmit) continue;
        const auto spec = psync::driver::spec_from_config(
            psync::IniConfig::parse(specs_[r.spec].ini()));
        if (psync::driver::sweep_json(psync::driver::Session().run(spec)) != r.body) {
          ++out->failed;
          out->errors.push_back("serve_mix: body differs from the in-process sweep_json");
        }
        break;
      }
    }
    std::uint64_t h = fnv1a("");
    for (std::size_t i = 0; i < plan_.size() && i < kDigestPrefix; ++i) {
      h = fnv1a(plan_[i].body, h);
    }
    digest_ = h;
    out->digest = h;
    out->has_digest = plan_.size() >= kDigestPrefix;
  }

  void record_spans(Tracer& tr) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      const auto& r = plan_[i];
      if (!r.ok) continue;
      const int parent = tr.add("serve.request", r.due, r.body_at, i);
      tr.add("serve.submit_ack", r.sent, r.ack, i, parent);
      tr.add("serve.subscribe", r.ack, r.results_sent, i, parent);
      tr.add("serve.results", r.results_sent, r.body_at, i, parent);
    }
    record_s_ = now_s() - t0;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<psync::serve::Server> server_;
  std::string socket_;
  std::vector<CampaignSpec> specs_;
  std::vector<std::string> warm_bodies_;
  std::vector<Request> plan_;
  std::vector<double> start_s_;
  std::uint64_t digest_ = 0;
  double loop_s_ = 0.0;
  double record_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix() { return std::make_unique<ServeMix>(); }

}  // namespace psync_bench
