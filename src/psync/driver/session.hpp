// Session: the submission/execution split of the driver API.
//
// A single blocking run call would tie spec validation, grid expansion,
// journal resume, and point execution together. The campaign service
// (src/psync/serve) needs those phases apart — a daemon must validate and
// hash a spec *before* committing threads to it, run many campaigns
// concurrently, and stream per-point progress to subscribers while points
// are still executing. Hence:
//
//   validate(spec)  -> typed ConfigError diagnostics; const, no I/O
//   freeze(spec)    -> FrozenSpec: expanded grid + canonical JSON + digest
//                      (pure and hashable; throws the first diagnostic)
//   submit(frozen)  -> CampaignHandle: the campaign runs on its own
//                      thread; poll progress, stream events, cancel, join
//   run(spec)       -> submit + join, the old synchronous shape
//
// Every caller (psync_sim, benches, dist workers, the serve daemon)
// executes points through literally the same code path — which is what
// keeps serial, sharded, and served campaigns byte-identical.
//
// A Session may carry a PointCache: before executing a pending point, the
// campaign asks the cache for a record with the point's content digest
// (RunPoint::digest) and splices a hit in place of execution — exactly as
// the journal-resume path splices, so rendered output stays byte-identical
// whether a point was simulated, resumed, or cache-hit. Only kOk records
// are ever stored or returned: a transient failure must not poison the
// cache. Cache hits do NOT fire the spec's PointObserver (observers
// announce *executed* points only), which is what lets tests assert "zero
// points re-simulated" on a cache-served resubmission.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/driver/runner.hpp"

namespace psync::driver {

/// Per-point result cache the execution phase consults before simulating.
/// Implementations must be thread-safe: concurrent campaigns look up and
/// store from their own threads. The serve layer's journal-backed
/// implementation is serve::ResultCache.
class PointCache {
 public:
  virtual ~PointCache() = default;
  /// Fetch the record stored under a point's content digest into `*out`.
  /// Returns false on a miss. `seed` cross-checks the stored record's
  /// seed (the digest already covers it; a mismatch means a hash
  /// collision and must read as a miss, never as a wrong result).
  virtual bool lookup(std::uint64_t digest, std::uint64_t seed,
                      RunRecord* out) = 0;
  /// Store an executed point's record under its digest. Callers only pass
  /// kOk records.
  virtual void store(std::uint64_t digest, std::uint64_t seed,
                     const RunRecord& rec) = 0;
};

/// The pure, hashable output of the construction phase: the spec, its
/// fully-expanded grid, and its canonical content identity. Everything a
/// daemon needs to decide "have I run this before?" without executing.
struct FrozenSpec {
  ExperimentSpec spec;
  std::vector<RunPoint> points;  // expanded grid, digests filled
  std::string canonical;         // spec.canonical_json()
  std::uint64_t digest = 0;      // fnv1a64(canonical): the campaign key
};

enum class CampaignState {
  kRunning,
  kDone,       // result() is valid
  kFailed,     // result() rethrows the stored exception
  kCancelled,  // cancelled before completion (CancelledError stored)
};

const char* to_string(CampaignState state);

/// One per-point completion, in the order records landed (not grid
/// order). The serve daemon streams these to subscribers.
struct CampaignEvent {
  /// Where the record came from: executed here, spliced from the resume
  /// journal, or served by the PointCache.
  enum class Source { kRun, kResume, kCache };
  std::size_t index = 0;
  PointStatus status = PointStatus::kOk;
  Source source = Source::kRun;
  RunRecord record;  // full copy, for per-point streaming
};

const char* to_string(CampaignEvent::Source source);

/// Point-level accounting a campaign updates as it goes (all monotone).
struct CampaignProgress {
  std::size_t total = 0;      // points in this run's shard window
  std::size_t completed = 0;  // records landed, from any source
  std::size_t executed = 0;   // actually simulated by this campaign
  std::size_t cache_hits = 0; // served by the PointCache
  std::size_t resumed = 0;    // spliced from the checkpoint journal
};

/// Internal state shared between a running campaign thread and its
/// handles. Treat as opaque; CampaignHandle is the API.
struct Campaign {
  ~Campaign();

  std::mutex mu;
  std::condition_variable cv;
  CampaignState state = CampaignState::kRunning;
  SweepResult result;            // valid once state == kDone
  std::exception_ptr error;      // set for kFailed / kCancelled
  std::vector<CampaignEvent> events;
  CampaignProgress progress;
  CancelToken token;             // campaign-local cancel (parented to
                                 // the spec's token when one is set)
  std::function<void()> on_change;  // Session::Options::on_change
  std::thread thread;
  bool joined = false;
};

/// Shared, copyable reference to a submitted campaign. All methods are
/// thread-safe; several handles (e.g. two serve subscribers) may observe
/// one campaign concurrently. The last handle's destructor joins a
/// still-running campaign — a campaign is never silently abandoned.
class CampaignHandle {
 public:
  CampaignHandle() = default;

  [[nodiscard]] bool valid() const { return c_ != nullptr; }
  [[nodiscard]] CampaignState state() const;
  [[nodiscard]] bool done() const { return state() != CampaignState::kRunning; }
  [[nodiscard]] CampaignProgress progress() const;

  /// Request cooperative cancellation: no new point starts, in-flight
  /// points abandon at their next cycle-batch boundary, the journal tail
  /// stays durable, and the campaign finishes kCancelled.
  void cancel();

  /// Block until the campaign leaves kRunning (joins the thread). Does not
  /// throw on failure — inspect state() or call result().
  void wait();

  /// wait(), then the finished result; rethrows the campaign's exception
  /// when it failed or was cancelled. The reference stays valid for the
  /// campaign's lifetime.
  const SweepResult& result();

  /// wait(), then move the result out (rethrows like result()). The
  /// synchronous Session::run path uses this to avoid a deep copy.
  SweepResult take();

  /// Copy events [cursor, size) into `*out` (appended), waiting up to
  /// `timeout_ms` for new ones when the campaign is still running (0 =
  /// no wait). Returns the new cursor. Subscribers poll this in a loop:
  /// cursor 0 replays history, so a late subscriber misses nothing.
  std::size_t events_since(std::size_t cursor, double timeout_ms,
                           std::vector<CampaignEvent>* out);

 private:
  friend class Session;
  explicit CampaignHandle(std::shared_ptr<Campaign> c) : c_(std::move(c)) {}
  std::shared_ptr<Campaign> c_;
};

class Session {
 public:
  struct Options {
    /// Optional per-point result cache (non-owning; must outlive every
    /// campaign submitted through this session).
    PointCache* cache = nullptr;
    /// Optional: called on a campaign's thread, after it records each
    /// event and after it leaves kRunning. Must not block (the serve
    /// daemon writes one byte to its reactor's wake pipe).
    std::function<void()> on_change;
  };

  Session() = default;
  explicit Session(Options opts) : opts_(opts) {}

  /// Every problem with the spec, as typed diagnostics: unknown workload,
  /// a field outside its config_keys() row, empty or invalid sweep axes
  /// (every knob value against its row), inverted shard window, resume
  /// without a journal. Const and I/O-free — safe to call on untrusted
  /// submissions before committing any resource to them. An empty vector
  /// means freeze() will accept the spec.
  static std::vector<ConfigError> validate(const ExperimentSpec& spec);

  /// Construction phase: validate, expand the grid, compute the canonical
  /// form and digest. Pure (no I/O, no threads). Throws the first
  /// validate() diagnostic on an invalid spec.
  static FrozenSpec freeze(const ExperimentSpec& spec);

  /// Execution phase: run the frozen campaign on its own thread and
  /// return immediately. Journal/resume/shard/cancel semantics are
  /// exactly run()'s (documented there); execution errors surface through
  /// the handle, not here.
  CampaignHandle submit(FrozenSpec frozen);
  /// freeze() + submit(). Invalid specs throw here, synchronously.
  CampaignHandle submit(const ExperimentSpec& spec);

  /// The synchronous path: submit + join. Expands the spec's sweep grid
  /// and executes every point through the workload registry on
  /// `spec.threads` pool threads. Deterministic: the records come back in
  /// grid order and each point's seed depends only on (spec.input_seed,
  /// index), so serial and parallel runs are byte-identical once rendered.
  ///
  /// Campaign features (all opt-in via the spec):
  ///   * spec.guard — each point runs under a PointGuard (isolation,
  ///     watchdog, retry, quarantine; campaign.hpp);
  ///   * spec.journal_path — every finished point is appended to a
  ///     checkpoint journal as one fsync'd JSONL line;
  ///   * spec.resume — points already in the journal are reconstituted
  ///     instead of re-run (validated against this sweep's grid indices,
  ///     seeds and workload; throws JournalCorruptError/JournalConflictError
  ///     — both SimulationError — on a damaged or mismatched journal), and
  ///     the rendered output is byte-identical to an uninterrupted run;
  ///   * spec.shard_begin/shard_end — execute only that window of the grid
  ///     (the distributed layer's shard contract; seeds stay global);
  ///   * spec.quarantine_indices — record those points as quarantined
  ///     (worker_crash) without executing them;
  ///   * spec.cancel — cooperative shutdown: no new point starts after the
  ///     token fires, in-flight points abandon at cycle-batch boundaries,
  ///     and CancelledError is thrown instead of returning a short result;
  ///   * spec.observer — per-point start/done callbacks (heartbeats).
  SweepResult run(const ExperimentSpec& spec);

 private:
  static void execute(const FrozenSpec& frozen, PointCache* cache,
                      Campaign* c);
  Options opts_;
};

}  // namespace psync::driver
