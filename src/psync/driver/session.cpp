#include "psync/driver/session.hpp"

#include <algorithm>
#include <chrono>

#include "psync/common/journal.hpp"
#include "psync/perf/stopwatch.hpp"

namespace psync::driver {

const char* to_string(CampaignState state) {
  switch (state) {
    case CampaignState::kRunning: return "running";
    case CampaignState::kDone: return "done";
    case CampaignState::kFailed: return "failed";
    case CampaignState::kCancelled: return "cancelled";
  }
  return "?";
}

const char* to_string(CampaignEvent::Source source) {
  switch (source) {
    case CampaignEvent::Source::kRun: return "run";
    case CampaignEvent::Source::kResume: return "resume";
    case CampaignEvent::Source::kCache: return "cache";
  }
  return "?";
}

Campaign::~Campaign() {
  // The last handle may die while the campaign still runs (an abandoned
  // submission); joining here keeps the thread from outliving the state
  // it writes to. wait() joins earlier in the normal path.
  if (thread.joinable()) thread.join();
}

namespace {

// Execute one already-expanded point through the workload registry, out of
// the calling worker's scratch.
RunRecord run_point(const std::string& workload, const RunPoint& pt,
                    core::Scratch& scratch) {
  const Workload& w = find_workload(workload);
  perf::Stopwatch watch;
  RunRecord rec = w.run(pt, scratch);
  rec.wall_ns = watch.elapsed_ns();
  rec.index = pt.index;
  rec.workload = workload;
  rec.knobs = pt.knobs;
  return rec;
}

// Tell the Session's change callback that `c` recorded an event or left
// running. Callers have released c->mu (on_change is set before the
// campaign thread starts and never changes).
void announce(const Campaign* c) {
  if (c->on_change) c->on_change();
}

// Record one landed point: event for subscribers, progress tally, wakeup.
// Callers must NOT hold c->mu.
void note_point(Campaign* c, std::size_t index, const RunRecord& rec,
                CampaignEvent::Source source) {
  {
    std::lock_guard<std::mutex> lock(c->mu);
    CampaignEvent ev;
    ev.index = index;
    ev.status = rec.status;
    ev.source = source;
    ev.record = rec;
    c->events.push_back(std::move(ev));
    ++c->progress.completed;
    switch (source) {
      case CampaignEvent::Source::kRun: ++c->progress.executed; break;
      case CampaignEvent::Source::kResume: ++c->progress.resumed; break;
      case CampaignEvent::Source::kCache: ++c->progress.cache_hits; break;
    }
    c->cv.notify_all();
  }
  announce(c);
}

}  // namespace

CampaignState CampaignHandle::state() const {
  PSYNC_CHECK(c_ != nullptr);
  std::lock_guard<std::mutex> lock(c_->mu);
  return c_->state;
}

CampaignProgress CampaignHandle::progress() const {
  PSYNC_CHECK(c_ != nullptr);
  std::lock_guard<std::mutex> lock(c_->mu);
  return c_->progress;
}

void CampaignHandle::cancel() {
  PSYNC_CHECK(c_ != nullptr);
  c_->token.cancel();
  c_->cv.notify_all();
}

void CampaignHandle::wait() {
  PSYNC_CHECK(c_ != nullptr);
  std::unique_lock<std::mutex> lock(c_->mu);
  c_->cv.wait(lock, [&] { return c_->state != CampaignState::kRunning; });
  if (!c_->joined) {
    c_->joined = true;
    lock.unlock();
    c_->thread.join();
  }
}

const SweepResult& CampaignHandle::result() {
  wait();
  std::lock_guard<std::mutex> lock(c_->mu);
  if (c_->error) std::rethrow_exception(c_->error);
  return c_->result;
}

SweepResult CampaignHandle::take() {
  wait();
  std::lock_guard<std::mutex> lock(c_->mu);
  if (c_->error) std::rethrow_exception(c_->error);
  return std::move(c_->result);
}

std::size_t CampaignHandle::events_since(std::size_t cursor, double timeout_ms,
                                         std::vector<CampaignEvent>* out) {
  PSYNC_CHECK(c_ != nullptr && out != nullptr);
  std::unique_lock<std::mutex> lock(c_->mu);
  if (cursor >= c_->events.size() && c_->state == CampaignState::kRunning &&
      timeout_ms > 0.0) {
    c_->cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms), [&] {
          return cursor < c_->events.size() ||
                 c_->state != CampaignState::kRunning;
        });
  }
  for (std::size_t i = cursor; i < c_->events.size(); ++i) {
    out->push_back(c_->events[i]);
  }
  return c_->events.size();
}

std::vector<ConfigError> Session::validate(const ExperimentSpec& spec) {
  std::vector<ConfigError> diags;
  try {
    (void)find_workload(spec.workload);
  } catch (const SimulationError& e) {
    diags.emplace_back(e.what());
  }
  // Every numeric field of the key table, read through a scratch copy.
  ExperimentSpec fields = spec;
  const ConfigKey::Target target{&fields.machine, &fields.mesh, &fields};
  for (const auto& key : config_keys()) {
    const auto error = key.get ? value_error(key, key.get(target)) : "";
    if (!error.empty()) diags.emplace_back(error);
  }
  // Grid size mirrors SweepEngine::expand exactly (axes multiply; no axes
  // is one point) so the shard-window clamp below matches execution.
  std::size_t total = 1;
  for (const auto& axis : spec.axes) {
    if (axis.values.empty()) {
      diags.push_back(empty_axis_error(axis.knob));
      continue;
    }
    total *= axis.values.size();
    // Dry-run every knob value against its row: unknown knobs and values
    // the row does not admit, without expanding the grid.
    const ConfigKey* key = find_knob(axis.knob);
    if (key == nullptr) {
      diags.emplace_back("sweep: unknown knob '" + axis.knob + "'");
      continue;
    }
    for (const double value : axis.values) {
      const auto error = value_error(*key, value);
      if (!error.empty()) {
        diags.emplace_back(error);
        break;
      }
    }
  }
  const std::size_t begin = std::min(spec.shard_begin, total);
  const std::size_t end = std::min(spec.shard_end, total);
  if (begin > end) {
    diags.emplace_back("shard window [" + std::to_string(spec.shard_begin) +
                       ", " + std::to_string(spec.shard_end) +
                       ") is inverted");
  }
  if (spec.resume && spec.journal_path.empty()) {
    diags.emplace_back("resume requested without a journal path");
  }
  return diags;
}

FrozenSpec Session::freeze(const ExperimentSpec& spec) {
  const auto diags = validate(spec);
  if (!diags.empty()) throw diags.front();
  FrozenSpec frozen;
  frozen.spec = spec;
  frozen.points = SweepEngine::expand(spec);
  frozen.canonical = spec.canonical_json();
  frozen.digest = fnv1a64(frozen.canonical);
  return frozen;
}

CampaignHandle Session::submit(FrozenSpec frozen) {
  auto c = std::make_shared<Campaign>();
  c->token.set_parent(frozen.spec.cancel);
  c->on_change = opts_.on_change;
  {
    // The window clamp is recomputed in execute(); setting total here lets
    // progress() answer sensibly before the thread gets scheduled.
    const std::size_t n = frozen.points.size();
    c->progress.total =
        std::min(frozen.spec.shard_end, n) - std::min(frozen.spec.shard_begin, n);
  }
  PointCache* cache = opts_.cache;
  Campaign* raw = c.get();
  raw->thread = std::thread([frozen = std::move(frozen), cache, raw] {
    try {
      execute(frozen, cache, raw);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(raw->mu);
        raw->error = std::current_exception();
        raw->state = raw->token.cancelled() ? CampaignState::kCancelled
                                            : CampaignState::kFailed;
        raw->cv.notify_all();
      }
      announce(raw);
    }
  });
  return CampaignHandle(std::move(c));
}

CampaignHandle Session::submit(const ExperimentSpec& spec) {
  return submit(freeze(spec));
}

SweepResult Session::run(const ExperimentSpec& spec) {
  return submit(spec).take();
}

void Session::execute(const FrozenSpec& frozen, PointCache* cache,
                      Campaign* c) {
  const ExperimentSpec& spec = frozen.spec;
  const std::vector<RunPoint>& points = frozen.points;
  SweepResult result;
  result.spec = spec;
  result.records.resize(points.size());

  // Shard window: only [begin, end) of the grid is this run's to execute.
  // Seeds/knobs/digests were derived from global indices during expansion,
  // so the window changes *which* points run, never what any point
  // computes. freeze() already rejected inverted windows.
  const std::size_t begin = std::min(spec.shard_begin, points.size());
  const std::size_t end = std::min(spec.shard_end, points.size());
  PSYNC_CHECK(begin <= end);

  // Resume: reconstitute journaled points into their grid slots. Every
  // entry must belong to this sweep (admit_journal_entry: grid bounds,
  // point seed, workload, point digest) or the journal belongs to a
  // different campaign: fail loudly rather than mix results. Entries
  // *outside* the shard window are still validated and spliced (a
  // replacement worker may inherit a journal whose range was since
  // re-partitioned), they just don't count toward this run's campaign.
  std::vector<char> done(points.size(), 0);
  std::size_t resumed = 0;
  if (spec.resume) {
    PSYNC_CHECK(!spec.journal_path.empty());  // rejected by freeze()
    for (auto& entry :
         admit_sweep_journal(read_journal_lines(spec.journal_path),
                             spec.journal_path, points, spec.workload)) {
      const std::size_t idx = entry.rec.index;
      const bool fresh = done[idx] == 0 && idx >= begin && idx < end;
      if (fresh) {
        ++resumed;
        note_point(c, idx, entry.rec, CampaignEvent::Source::kResume);
      }
      result.records[idx] = std::move(entry.rec);
      done[idx] = 1;
    }
  }

  JournalWriter journal;
  if (!spec.journal_path.empty()) {
    journal.open(spec.journal_path, /*keep_existing=*/spec.resume);
  }

  // Leader-quarantined points: record the verdict without executing, and
  // journal it so a resume or a shard merge sees the same story.
  for (const std::size_t idx : spec.quarantine_indices) {
    if (idx < begin || idx >= end || done[idx] != 0) continue;
    RunRecord rec;
    rec.index = idx;
    rec.workload = spec.workload;
    rec.knobs = points[idx].knobs;
    rec.status = PointStatus::kQuarantined;
    rec.failure = PointFailure{
        FailureKind::kWorkerCrash,
        "quarantined by the sweep leader after repeated worker crashes on "
        "this point",
        0};
    if (journal.is_open()) {
      journal.append(journal_line(rec, points[idx].seed, points[idx].digest));
    }
    note_point(c, idx, rec, CampaignEvent::Source::kRun);
    result.records[idx] = std::move(rec);
    done[idx] = 1;
  }

  // Cache splice: ask the PointCache for every still-pending point before
  // committing a thread to it. A hit lands exactly like a resumed record
  // (journaled, counted, byte-identical when rendered) — it just came from
  // another campaign's execution. Observers are NOT fired: they announce
  // executed points only.
  std::size_t cache_hits = 0;
  if (cache != nullptr) {
    for (std::size_t i = begin; i < end; ++i) {
      if (done[i] != 0) continue;
      RunRecord rec;
      if (!cache->lookup(points[i].digest, points[i].seed, &rec)) continue;
      rec.index = i;  // same content can sit at another grid's index
      if (journal.is_open()) {
        journal.append(journal_line(rec, points[i].seed, points[i].digest));
      }
      ++cache_hits;
      note_point(c, i, rec, CampaignEvent::Source::kCache);
      result.records[i] = std::move(rec);
      done[i] = 1;
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = begin; i < end; ++i) {
    if (done[i] == 0) pending.push_back(i);
  }

  const PointGuard guard(spec.guard);
  SweepEngine engine(spec.threads);
  engine.map(pending, [&](const std::size_t i, core::Scratch& scratch) {
    // Shutdown check: once the campaign token fires (handle.cancel(), the
    // spec's parent token, or both), unstarted points stay unstarted (and
    // unrecorded) — completion is tracked via done[] so the run is
    // reported cancelled, not silently short.
    if (c->token.cancelled()) return 0;
    if (spec.observer != nullptr) spec.observer->on_point_start(i);
    RunRecord rec = guard.run(
        spec.workload, points[i],
        [&](const RunPoint& pt) {
          return run_point(spec.workload, pt, scratch);
        },
        &c->token);
    if (cache != nullptr && rec.status == PointStatus::kOk) {
      // Only clean results are worth caching: a transient failure
      // (timeout, internal error) must never be served to a later
      // submission as if it were the point's answer.
      cache->store(points[i].digest, points[i].seed, rec);
    }
    // c->mu serializes journal appends, record stores, observer calls and
    // event publication, so subscribers see completions in append order.
    {
      std::lock_guard<std::mutex> lock(c->mu);
      if (journal.is_open()) {
        journal.append(journal_line(rec, points[i].seed, points[i].digest));
      }
      const PointStatus status = rec.status;
      CampaignEvent ev;
      ev.index = i;
      ev.status = status;
      ev.source = CampaignEvent::Source::kRun;
      ev.record = rec;
      c->events.push_back(std::move(ev));
      ++c->progress.completed;
      ++c->progress.executed;
      result.records[i] = std::move(rec);
      done[i] = 1;
      if (spec.observer != nullptr) spec.observer->on_point_done(i, status);
      c->cv.notify_all();
    }
    announce(c);
    return 0;
  });

  if (c->token.cancelled()) {
    std::size_t remaining = 0;
    for (const std::size_t i : pending) {
      if (done[i] == 0) ++remaining;
    }
    if (remaining > 0) {
      throw CancelledError("sweep cancelled with " +
                           std::to_string(remaining) +
                           " point(s) unfinished; journal tail is durable");
    }
  }

  result.campaign = summarize_campaign(result.records, begin, end);
  result.campaign.resumed = resumed;
  result.campaign.cache_hits = cache_hits;

  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->result = std::move(result);
    c->state = CampaignState::kDone;
    c->cv.notify_all();
  }
  announce(c);
}

}  // namespace psync::driver
