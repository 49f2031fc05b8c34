#include "psync/serve/core.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "psync/common/config.hpp"
#include "psync/serve/cache.hpp"

namespace psync::serve {
namespace {

std::string progress_fields(const driver::CampaignProgress& p) {
  std::ostringstream os;
  os << "\"total\":" << p.total << ",\"completed\":" << p.completed
     << ",\"executed\":" << p.executed << ",\"cache_hits\":" << p.cache_hits
     << ",\"resumed\":" << p.resumed;
  return os.str();
}

std::string event_frame(const std::string& id,
                        const driver::CampaignEvent& ev) {
  std::ostringstream os;
  os << "{\"event\":\"point\",\"campaign\":" << json_string(id)
     << ",\"index\":" << ev.index << ",\"status\":"
     << json_string(driver::to_string(ev.status))
     << ",\"source\":" << json_string(driver::to_string(ev.source))
     << ",\"record\":" << driver::point_json(ev.record) << '}';
  return os.str();
}

}  // namespace

ServeCore::ServeCore(ServerOptions opts, ServeIo* io)
    : opts_(std::move(opts)), io_(io) {}

void ServeCore::on_open(ConnId conn) { conns_.emplace(conn, Conn{}); }

bool ServeCore::reading(ConnId conn) const {
  const auto it = conns_.find(conn);
  return it != conns_.end() && it->second.wait == Wait::kNone;
}

void ServeCore::on_bytes(ConnId conn, const char* data, std::size_t n) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  it->second.buf.append(data, n);
  drain(conn);
}

void ServeCore::on_closed(ConnId conn) {
  conns_.erase(conn);
  parked_.erase(conn);
}

void ServeCore::close(ConnId id) {
  io_->close(id);
  on_closed(id);
}

void ServeCore::drain(ConnId id) {
  Conn& c = conns_.at(id);
  std::size_t start = 0;
  while (c.wait == Wait::kNone) {
    const std::size_t nl = c.buf.find('\n', start);
    if (nl == std::string::npos) break;
    if (nl - start > opts_.max_line_bytes) break;
    const std::string line = c.buf.substr(start, nl - start);
    start = nl + 1;
    if (!dispatch(id, c, line)) return;  // closed: `c` is gone
  }
  c.buf.erase(0, start);
  if (c.wait != Wait::kNone) return;
  const std::size_t nl = c.buf.find('\n');
  const std::size_t line_bytes = nl == std::string::npos ? c.buf.size() : nl;
  if (line_bytes > opts_.max_line_bytes) {
    io_->send(id, error_frame("frame_too_long",
                              "request line exceeds " +
                                  std::to_string(opts_.max_line_bytes) +
                                  " bytes"));
    close(id);
  }
}

bool ServeCore::dispatch(ConnId id, Conn& c, const std::string& line) {
  Request req;
  const FrameError err = parse_request(line, &req);
  if (err != FrameError::kNone) {
    // A bad frame poisons nothing; the connection stays open.
    io_->send(id, error_frame(to_string(err),
                              "malformed request frame (" +
                                  std::string(to_string(err)) + ")"));
    return true;
  }
  c.req = req;
  switch (req.op) {
    case Op::kSubmit: {
      try {
        const IniConfig cfg = IniConfig::parse(req.config);
        driver::ExperimentSpec spec = driver::spec_from_config(cfg);
        if (req.threads > 0) {
          spec.threads = static_cast<std::size_t>(req.threads);
        } else if (opts_.threads > 0) {
          spec.threads = opts_.threads;
        }
        c.frozen = driver::Session::freeze(spec);
      } catch (const SimulationError& e) {
        io_->send(id, error_frame("invalid_spec", e.what()));
        return true;
      }
      // Execution policy is the daemon's, not the submission's: journal
      // into the cache directory under the campaign's content digest,
      // resume always on (a resubmitted campaign IS a resume of its own
      // journal). These fields are excluded from the digest.
      if (!opts_.cache_dir.empty()) {
        c.frozen.spec.journal_path =
            opts_.cache_dir + "/" + campaign_journal_name(c.frozen.digest);
        c.frozen.spec.resume = true;
      }
      submit(id, c);
      return true;
    }
    case Op::kStatus: {
      const Entry* entry = find(id, req.campaign);
      if (entry == nullptr) return true;
      std::ostringstream os;
      os << "{\"ok\":true,\"campaign\":" << json_string(campaign_id(req.campaign))
         << ",\"state\":" << json_string(to_string(io_->state(entry->run)))
         << ',' << progress_fields(io_->progress(entry->run)) << '}';
      io_->send(id, os.str());
      return true;
    }
    case Op::kResults:
      results(id, c);
      return true;
    case Op::kSubscribe: {
      const Entry* entry = find(id, req.campaign);
      if (entry == nullptr) return true;
      c.cursor = 0;  // a late subscriber replays the whole history
      park(id, c, Wait::kSubscribe, entry->run);
      if (pump(id, c)) {
        c.wait = Wait::kNone;
        parked_.erase(id);
      }
      return true;
    }
    case Op::kCancel: {
      Entry* entry = find(id, req.campaign);
      if (entry == nullptr) return true;
      entry->cancelled = true;
      io_->cancel(entry->run);
      io_->send(id, "{\"ok\":true,\"campaign\":" +
                        json_string(campaign_id(req.campaign)) +
                        ",\"cancelled\":true}");
      return true;
    }
    case Op::kShutdown:
      io_->send(id, "{\"ok\":true,\"shutdown\":true}");
      io_->request_shutdown();
      close(id);
      return false;
  }
  return true;
}

ServeCore::Entry* ServeCore::find(ConnId id, std::uint64_t digest) {
  const auto it = registry_.find(digest);
  if (it != registry_.end()) return &it->second;
  io_->send(id, error_frame("unknown_campaign", "no campaign " +
                                                    campaign_id(digest) +
                                                    " on this daemon"));
  return nullptr;
}

void ServeCore::park(ConnId id, Conn& c, Wait wait, RunId run) {
  c.wait = wait;
  c.run = run;
  parked_.insert(id);
}

void ServeCore::submit(ConnId id, Conn& c) {
  if (stopping_) {
    io_->send(id, error_frame("shutting_down", "the daemon is stopping"));
    return;
  }
  const std::uint64_t digest = c.frozen.digest;
  const std::size_t points = c.frozen.points.size();
  bool attached = false;
  const auto it = registry_.find(digest);
  if (it == registry_.end()) {
    Entry entry;
    entry.run = io_->start(std::move(c.frozen));
    registry_.emplace(digest, std::move(entry));
  } else {
    // Dedupe by digest: attach to a running, uncancelled campaign or a
    // done one instead of colliding on its journal's flock. A cancelled
    // or failed campaign runs again once it has left running.
    Entry& entry = it->second;
    const driver::CampaignState state = io_->state(entry.run);
    if (state == driver::CampaignState::kDone ||
        (state == driver::CampaignState::kRunning && !entry.cancelled)) {
      attached = true;
    } else if (state == driver::CampaignState::kRunning) {
      park(id, c, Wait::kSubmit, entry.run);
      return;
    } else {
      entry = Entry{};
      entry.run = io_->start(std::move(c.frozen));
    }
  }
  c.frozen = driver::FrozenSpec{};
  std::ostringstream os;
  os << "{\"ok\":true,\"campaign\":" << json_string(campaign_id(digest))
     << ",\"points\":" << points
     << ",\"attached\":" << (attached ? "true" : "false") << '}';
  io_->send(id, os.str());
}

void ServeCore::results(ConnId id, Conn& c) {
  const Request& req = c.req;
  const Entry* entry = find(id, req.campaign);
  if (entry == nullptr) return;
  if (io_->state(entry->run) == driver::CampaignState::kRunning) {
    if (!req.wait) {
      io_->send(id, error_frame("not_finished",
                                "campaign " + campaign_id(req.campaign) +
                                    " is still running (pass wait)"));
      return;
    }
    park(id, c, Wait::kResults, entry->run);
    return;
  }
  answer_results(id, req, entry->run);
}

void ServeCore::answer_results(ConnId id, const Request& req, RunId run) {
  // The run the request waited on: a resubmission may since have put a
  // new run under the digest, whose bodies are not this run's.
  const auto it = registry_.find(req.campaign);
  const bool want_json = req.format == "json";
  std::string* memo = nullptr;
  if (it != registry_.end() && it->second.run == run) {
    memo = want_json ? &it->second.json_body : &it->second.csv_body;
  }
  std::string body;
  if (memo != nullptr) body = *memo;
  if (body.empty()) {
    try {
      const driver::SweepResult& result = io_->result(run);
      body = want_json ? driver::sweep_json(result) : driver::sweep_csv(result);
    } catch (const std::exception& e) {
      io_->send(id, error_frame("campaign_failed", e.what()));
      return;
    }
    if (memo != nullptr) *memo = body;
  }
  std::ostringstream os;
  os << "{\"ok\":true,\"campaign\":" << json_string(campaign_id(req.campaign))
     << ",\"format\":" << json_string(req.format) << ','
     << progress_fields(io_->progress(run))
     << ",\"body\":" << json_string(body) << '}';
  io_->send(id, os.str());
}

bool ServeCore::pump(ConnId id, Conn& c) {
  // State first: once it reads "not running", every event is already
  // recorded, so the events read next are the whole rest of the stream.
  const driver::CampaignState state = io_->state(c.run);
  std::vector<driver::CampaignEvent> events;
  c.cursor = io_->events_since(c.run, c.cursor, &events);
  const std::string id_text = campaign_id(c.req.campaign);
  for (const auto& ev : events) io_->send(id, event_frame(id_text, ev));
  if (state == driver::CampaignState::kRunning) return false;
  std::ostringstream os;
  os << "{\"event\":\"done\",\"campaign\":" << json_string(id_text)
     << ",\"state\":" << json_string(to_string(state)) << ','
     << progress_fields(io_->progress(c.run)) << '}';
  io_->send(id, os.str());
  return true;
}

bool ServeCore::resume(ConnId id, Conn& c) {
  switch (c.wait) {
    case Wait::kSubscribe:
      return pump(id, c);
    case Wait::kResults:
      if (io_->state(c.run) == driver::CampaignState::kRunning) return false;
      answer_results(id, c.req, c.run);
      return true;
    case Wait::kSubmit:
      if (io_->state(c.run) == driver::CampaignState::kRunning) return false;
      c.wait = Wait::kNone;
      submit(id, c);  // may park again on a newer cancelled run
      return c.wait == Wait::kNone;
    case Wait::kNone:
      break;
  }
  return true;
}

void ServeCore::on_campaigns_changed() {
  const std::vector<ConnId> watching(parked_.begin(), parked_.end());
  for (const ConnId id : watching) {
    const auto it = conns_.find(id);
    if (it == conns_.end() || it->second.wait == Wait::kNone) continue;
    if (!resume(id, it->second)) continue;
    it->second.wait = Wait::kNone;
    parked_.erase(id);
    drain(id);  // lines that queued up behind the wait
  }
  if (stopping_) finish_stop();
}

void ServeCore::stop() {
  if (stopping_) return;
  stopping_ = true;
  for (auto& [digest, entry] : registry_) {
    if (io_->state(entry.run) != driver::CampaignState::kRunning) continue;
    entry.cancelled = true;
    io_->cancel(entry.run);
  }
  on_campaigns_changed();
}

void ServeCore::finish_stop() {
  if (stopped_) return;
  for (const auto& [digest, entry] : registry_) {
    if (io_->state(entry.run) == driver::CampaignState::kRunning) return;
  }
  while (!conns_.empty()) close(conns_.begin()->first);
  stopped_ = true;
}

}  // namespace psync::serve
