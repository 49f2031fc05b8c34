// The sweep leader's policy, with no I/O of its own.
//
// Supervision model, in one paragraph: the grid is cut into contiguous
// ranges (shard.hpp), each range is an *assignment* with its own
// checkpoint journal, and `workers` process seats execute assignments.
// Every worker dials the leader and heartbeats over that connection
// (heartbeat.hpp); a connected worker silent longer than the liveness
// timeout is wedged and gets killed. A dead or wedged worker's assignment
// is relaunched in place with decorrelated-jitter backoff, past its
// journal's durably recorded prefix, so only the points that were never
// durably recorded re-run. A point that kills its worker K launches in a
// row is quarantined — recorded as kQuarantined/worker_crash — instead of
// being allowed to crash-loop the sweep. When a seat runs out of work it
// steals: the straggler with the most unfinished points is asked to stop
// (terminate -> graceful exit), its unfinished suffix is re-partitioned
// across the idle seats, and each stolen chunk gets its own `.steal<k>`
// journal. At the end every journal the run produced — including those
// left by killed workers — is merged (merge.hpp) into one grid-order
// SweepResult.
//
// The journal lives on the leader's side of the wire: workers stream each
// completed point's journal line, the leader appends it to the per-shard
// journal (durable before the ack — journal remains truth), dedups
// retransmissions by grid index, and *fences* zombie workers by lease
// epoch: every launch gets a fresh epoch, the epoch is revoked when the
// leader moves on (relaunch after connection loss, steal reclaim, exit),
// and a worker reconnecting with a revoked epoch is refused before it can
// write a single record. Connection loss is its own failure class
// (kConnectionLost): a disconnected worker that stays silent past the
// liveness window is presumed partitioned — it is *not* killed (the
// process may be unreachable, not dead); its shard is relaunched and the
// fence keeps the survivor out.
//
// LeaderCore holds all of that policy and sees the world only through
// LeaderIo: time arrives as a `double` millisecond argument, events
// (frame received, connection closed, worker exited) are method calls,
// and everything the leader does — launch, terminate, kill, send a
// frame, close a connection, open/append/read a journal — is a call on
// the seam. supervisor.cpp implements the seam with sockets,
// fork and flock'd journals; the dist tests implement it with a seeded
// simulator on a simulated clock. The core includes no POSIX, clock or
// thread header (psync_lint's sans-io-include rule keeps it that way).
//
// Determinism: per-point seeds come from the global grid index and merged
// records are journal round-trips, so the rendered JSON/CSV is
// byte-identical to a single-process serial run no matter how many workers
// died along the way. All supervision accounting (restarts, steals,
// reconnects, fences, incident list) lives in the non-serialized
// CampaignReport fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "psync/dist/backoff.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/merge.hpp"
#include "psync/dist/shard.hpp"
#include "psync/dist/worker.hpp"
#include "psync/driver/runner.hpp"

namespace psync::dist {

struct Heartbeat;  // heartbeat.hpp

struct SupervisorOptions {
  /// Worker process seats (and initial shard count). 0 is treated as 1.
  std::size_t workers = 2;

  /// Where the leader listens for its workers (port 0 = ephemeral) and
  /// the host workers are told to dial. advertise_host defaults to
  /// listen_host — set it when workers run on other machines and must
  /// dial a routable address rather than the bind address.
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  std::string advertise_host;

  /// Worker heartbeat interval; liveness timeout is
  /// heartbeat_ms * liveness_factor (a worker is presumed wedged — and
  /// SIGKILLed — after that much silence). The factor leaves room for
  /// scheduler jitter; with a 100 ms beat a worker must go a full second
  /// without any traffic before it is declared dead.
  double heartbeat_ms = 100.0;
  double liveness_factor = 10.0;

  /// Restart policy per assignment: relaunch n waits a decorrelated-
  /// jitter draw (backoff.hpp) from [restart_backoff_ms,
  /// min(restart_backoff_max_ms, 3 * previous wait)] — first relaunch
  /// waits exactly restart_backoff_ms. After kMaxRestarts restarts an
  /// assignment is abandoned and its unfinished points are reported as
  /// kFailed/worker_crash instead of looping forever.
  double restart_backoff_ms = 50.0;
  double restart_backoff_max_ms = 2000.0;

  /// Quarantine a grid point after this many consecutive worker crashes
  /// with that point in flight (the crash analogue of PointGuard's retry
  /// budget; uses the same taxonomy via kWorkerCrash).
  std::size_t crash_quarantine_after = 3;

  /// Work stealing: an idle seat may reclaim the unfinished suffix of the
  /// busiest running seat, but only when at least min_steal_points remain
  /// (smaller remainders finish faster than a SIGTERM round-trip). Values
  /// below 2 act as 2: a single point cannot be split.
  bool steal = true;
  std::size_t min_steal_points = 4;
  /// How long a SIGTERMed straggler gets to flush and exit before SIGKILL.
  double term_grace_ms = 5000.0;

  /// Shard journals are "<journal_base>.shard<i>[.steal<k>].jsonl"
  /// (shard.hpp). Required — the journals *are* the crash-safety story.
  std::string journal_base;
};

/// Launches an assignment gets after its first before it is abandoned and
/// its unfinished points are reported as kFailed/worker_crash.
inline constexpr std::size_t kMaxRestarts = 5;

/// Leader-side lease ledger: which (shard, epoch) claims are currently
/// valid. One epoch is issued per launch and revoked when the launch's
/// seat moves on (exit handled, shard stolen, connection-loss relaunch);
/// a HELLO claiming a revoked epoch is fenced.
class EpochLedger {
 public:
  /// Mint the epoch for a new launch of `shard`. Epochs are unique across
  /// the ledger's lifetime and never reused.
  std::uint64_t issue(std::size_t shard);
  /// The launch is over; any future claim of this epoch is a zombie.
  void revoke(std::uint64_t epoch);
  [[nodiscard]] bool valid(std::uint64_t epoch) const;
  /// The shard an active epoch was issued for (epoch must be valid()).
  [[nodiscard]] std::size_t shard_of(std::uint64_t epoch) const;
  [[nodiscard]] std::size_t active() const { return active_.size(); }

 private:
  std::uint64_t next_ = 1;
  std::map<std::uint64_t, std::size_t> active_;
};

/// A worker connection, named by the seam; 0 is never a connection.
using ConnId = std::uint64_t;
/// A launched worker, named by the seam (the POSIX adapter uses the pid).
using WorkerId = std::int64_t;
/// An open leader-side journal writer, named by the seam.
using JournalId = std::uint64_t;

/// How a worker process ended, already decoded: `exited` with `code`, or
/// killed by `signal` (0 with !exited: ended some other way).
struct WorkerExit {
  bool exited = false;
  int code = 0;
  int signal = 0;
};

/// Everything the leader does to the outside world.
class LeaderIo {
 public:
  LeaderIo() = default;
  virtual ~LeaderIo() = default;
  LeaderIo(const LeaderIo&) = delete;
  LeaderIo& operator=(const LeaderIo&) = delete;

  /// Start a worker for `cfg` (shard, generation, range, quarantine,
  /// heartbeat and epoch filled in; the seam adds the leader address).
  /// Throws SimulationError when no worker can be started.
  virtual WorkerId launch(WorkerConfig cfg) = 0;
  /// Ask a worker to wind down gracefully (SIGTERM).
  virtual void terminate(WorkerId worker) = 0;
  /// End a worker now (SIGKILL).
  virtual void kill(WorkerId worker) = 0;

  /// Send one whole frame; false when the connection is broken.
  virtual bool send(ConnId conn, const Frame& frame) = 0;
  /// Close a connection; the seam reports nothing more for it.
  virtual void close(ConnId conn) = 0;

  /// Open `path` for durable appends, keeping what it holds.
  virtual JournalId open_journal(const std::string& path) = 0;
  /// Append one line; durable when this returns.
  virtual void append(JournalId journal, const std::string& line) = 0;
  virtual void close_journal(JournalId journal) = 0;
  [[nodiscard]] virtual bool journal_exists(const std::string& path) = 0;
  /// Every complete line of the journal at `path` (missing reads empty).
  [[nodiscard]] virtual std::vector<std::string> read_journal(
      const std::string& path) = 0;
};

/// The leader's policy. The driving loop (supervisor.cpp, or a test
/// simulator) calls, once per round: cancel() when the run's cancel token
/// fired, schedule(), the event methods for whatever happened, then
/// enforce_deadlines(); it keeps going while running(), and ends with
/// finish(). It sleeps no later than next_deadline_ms().
class LeaderCore {
 public:
  /// Queues the initial shards and admits the `.steal<k>` journals an
  /// earlier run left at the base. Throws ConfigError for a missing
  /// journal_base and the merge layer's typed errors for a bad journal.
  LeaderCore(const driver::ExperimentSpec& spec, const SupervisorOptions& opts,
             LeaderIo* io);
  /// Work remains: queued assignments (unless shutting down) or a seat
  /// still busy.
  [[nodiscard]] bool running() const;

  /// The run was cancelled: stop launching, terminate running workers.
  void cancel(double now);
  /// Relaunch seats whose backoff expired, hand queued assignments to
  /// idle seats, and start a steal when a seat is idle.
  void schedule(double now);
  /// Kill workers silent past the liveness timeout (or fence them when
  /// disconnected), and escalate a termination that outlived its grace
  /// period.
  void enforce_deadlines(double now);

  /// Earliest instant a deadline falls due (a backoff expiry, a liveness
  /// timeout, a termination grace cutoff); infinity when none is armed.
  [[nodiscard]] double next_deadline_ms() const;
  /// A worker's connection reached EOF less than kExitReapWindowMs ago
  /// and its exit has not been seen: the process is most likely mid-exit.
  [[nodiscard]] bool exit_expected(double now) const;

  /// A frame arrived. The first frame of a connection must be a HELLO.
  void on_frame(ConnId conn, const Frame& frame, double now);
  /// The connection ended (EOF, error or framing desync) without the core
  /// closing it.
  void on_closed(ConnId conn, double now);
  /// A worker ended. Ids the core no longer tracks (a partitioned worker
  /// whose shard moved on) are ignored.
  void on_exit(WorkerId worker, const WorkerExit& status, double now);

  /// Throws CancelledError after cancel(); otherwise closes every journal
  /// writer, merges the journals and returns the grid-order result.
  driver::SweepResult finish();

  /// After a connection reaches EOF the driver may poll fast for this long
  /// so an exiting worker is reaped as soon as it can be seen. Bounded so
  /// a worker that dropped its connection but lives on — a partition —
  /// goes back to the normal cadence.
  static constexpr double kExitReapWindowMs = 50.0;

 private:
  /// Leader-side journal ownership for one assignment: the open writer,
  /// plus the grid indices the file holds — which make retransmitted
  /// journal frames append-once, and tell a relaunch or a steal what is
  /// left. Every line of the file was either read in at attach or
  /// appended through here. Shared because a steal re-partition hands
  /// chunk 0 the same journal file.
  struct LeaderJournal {
    JournalId id = 0;
    std::set<std::size_t> recorded;
  };

  /// One unit of schedulable work: a contiguous grid range bound to its
  /// own checkpoint journal. Assignments outlive the workers that execute
  /// them — a crashed worker's assignment is relaunched, a straggler's is
  /// split.
  struct Assignment {
    std::size_t shard = 0;  // original shard id (journal naming)
    ShardRange range;
    std::string journal;
    std::size_t launches = 0;  // processes started for this assignment
    std::shared_ptr<LeaderJournal> led;  // opened on first launch
  };

  enum class SeatState {
    kIdle,     // no assignment; may pull from the queue or steal
    kRunning,  // worker executing
    kBackoff,  // worker crashed; relaunch at backoff_until
    kTerming,  // terminate sent (steal reclaim or shutdown); awaiting exit
  };

  /// A worker process seat. Seats are fixed (opts.workers of them);
  /// assignments flow through them.
  struct Seat {
    SeatState state = SeatState::kIdle;
    Assignment asg;
    std::optional<WorkerId> worker;
    ConnId conn = 0;  // attached worker connection (0: none)
    /// When the connection last reached EOF this launch; cleared by launch
    /// and by a re-attach. Drives the fast reap tick, not liveness.
    std::optional<double> conn_eof;
    std::uint64_t epoch = 0;      // lease epoch of the current launch
    bool connected_once = false;  // a handshake landed this launch
    double last_beat = 0.0;
    double backoff_until = 0.0;
    double term_deadline = 0.0;
    std::int64_t inflight = -1;       // grid index last reported in flight
    std::uint64_t reported_done = 0;  // points finished this launch
    bool wedge_killed = false;  // liveness kill sent; incident recorded
    bool lost = false;          // connection-loss incident recorded
    bool stealing = false;      // kTerming is a steal reclaim, not shutdown
    std::optional<DecorrelatedBackoff> restart_backoff;
  };

  void maybe_steal(double now);
  std::size_t remaining_estimate(const Seat& seat) const;
  void launch(Seat& seat, double now);
  void attach_leader_journal(Assignment& asg);
  void admit_steal_journals();
  std::vector<driver::JournalEntry> read_admitted(const std::string& path);
  bool done(std::size_t i) const;
  void service_hello(ConnId conn, const Frame& frame, double now);
  Seat* seat_by_epoch(std::uint64_t epoch);
  Seat* seat_by_conn(ConnId conn);
  double liveness_ms() const;
  void apply_heartbeat(Seat& seat, const Heartbeat& hb);
  void handle_journal_frame(Seat& seat, const std::string& payload);
  void schedule_relaunch(Seat& seat, double now);
  std::string exit_description(const Seat& seat,
                               const WorkerExit& status) const;
  void note_crash_point(const Seat& seat,
                        const std::vector<std::size_t>& undone);
  std::vector<std::size_t> undone_in(const Assignment& asg) const;
  void repartition(Seat& seat, const std::vector<std::size_t>& undone);
  void record_incident(driver::FailureKind kind, std::string message,
                       std::size_t attempts);

  driver::ExperimentSpec spec_;  // as given (result.spec)
  SupervisorOptions opts_;
  LeaderIo* const io_;

  std::vector<driver::RunPoint> points_;
  std::vector<Seat> seats_;
  std::deque<Assignment> queue_;
  std::vector<std::string> journal_paths_;
  std::vector<JournalId> open_journals_;
  std::size_t next_shard_id_ = 0;
  std::map<std::size_t, std::size_t> steal_counter_;  // per original shard
  std::map<std::size_t, std::size_t> crash_streak_;   // per grid index
  std::set<std::size_t> quarantine_;
  std::set<std::size_t> resumed_;  // indices found in journals at attach
  std::vector<driver::PointFailure> incidents_;
  std::uint64_t restarts_ = 0;
  std::uint64_t steals_ = 0;
  bool gave_up_ = false;
  bool shutdown_ = false;

  EpochLedger ledger_;
  std::uint64_t reconnects_ = 0;
  std::uint64_t fenced_ = 0;

  // --- live merge: the dedup and conflict policy, applied as records land
  JournalMerger merger_;
};

}  // namespace psync::dist
