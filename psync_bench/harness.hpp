// Measurement plumbing shared by every psync_bench workload: the host-speed
// calibration kernel, in-memory trace spans, percentile helpers, a
// self-removing temp directory, resource usage and the host/build
// fingerprint. Apart from the fingerprint's ISA query nothing here calls
// into the simulator, so no change to src/ can move the yardstick the
// benchmark divides by.
#pragma once

#include <array>
#include <chrono>
#include <complex>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace psync_bench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// 64-bit FNV-1a over raw bytes (the digest the expected/ files hold).
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t v);

/// The parts of the calibration kernel, each timed on its own. On a shared
/// host the core-local parts (FFT, L2 chase, allocator-style churn) slow
/// down when another tenant competes for the core's caches and execution
/// units, while the ALU hash chain barely moves; the workloads sit in
/// between, each in its own proportion (README.md).
enum CalPart : std::size_t {
  kCalFft,      // 64K-point radix-2 complex FFT, L2 resident
  kCalChaseL2,  // dependent loads over a 1 MiB random cycle
  kCalArena,    // free-list allocation and fill in a fixed 512 KiB arena
  kCalHash,     // serial multiply-xorshift chain
  kCalParts,
};

/// Seconds per part of one calibration run.
using CalSample = std::array<double, kCalParts>;
/// How a workload's time responds to the host, as weights over the parts.
using CalMix = std::array<double, kCalParts>;

/// The host's slowdown against the reference host as `mix` sees it: the
/// weighted mean of each part's time over its reference-host time, so 1.0
/// on the reference host in its fast state.
double slowdown(const CalSample& s, const CalMix& mix);

/// The fixed host-speed yardstick. It lives beside the benchmark, so no
/// change to the simulator can move it. Pass times divided by the slowdown
/// of the adjacent runs are what the benchmark gates: a host that changes
/// speed between runs moves numerator and denominator together.
class Calibrator {
 public:
  /// `lanes` copies of the kernel run at once, one per core a multi-core
  /// workload keeps busy.
  explicit Calibrator(int lanes = 1);
  /// Run every part once on every lane; records and returns the mean
  /// per-part times.
  CalSample run();
  [[nodiscard]] const std::vector<CalSample>& samples() const { return samples_; }
  /// Whole-kernel wall time of every run, seconds.
  [[nodiscard]] std::vector<double> totals() const;

 private:
  struct Lane {
    std::vector<std::complex<double>> fft_buf;
    std::vector<std::uint64_t> arena;
  };

  CalSample run_lane(Lane& lane) const;
  std::uint64_t fft_round(std::complex<double>* buf) const;
  static std::uint64_t chase(const std::vector<std::uint32_t>& next, std::size_t steps);
  static std::uint64_t arena_round(std::uint64_t* arena);
  static std::uint64_t hash_round();

  // Read-only while running, shared by every lane.
  std::vector<std::complex<double>> twiddle_;
  std::vector<std::uint32_t> bitrev_;
  std::vector<std::complex<double>> fft_in_;
  std::vector<std::uint32_t> next_l2_;
  // Written by one lane each.
  std::vector<Lane> lanes_;
  std::vector<CalSample> samples_;
};

/// In-memory span recorder. Spans nest by a begin/end stack on one thread;
/// each carries its parent span and a request id (the grid point index or
/// submission id). Written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  int begin(std::string name, std::uint64_t request = 0);
  void end(int id);
  /// Record an already-timed span (client-side timestamps) under `parent`,
  /// or under the innermost open span when `parent` is kOpenParent.
  static constexpr int kOpenParent = -2;
  int add(std::string name, double start_s, double end_s,
          std::uint64_t request = 0, int parent = kOpenParent);

  /// Sum of durations of spans called `name`, in seconds.
  [[nodiscard]] double total(const std::string& name) const;
  /// Durations of every span called `name`, in seconds.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time of every span name, seconds.
  [[nodiscard]] std::map<std::string, double> self_times() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome(const std::string& path) const;

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, std::uint64_t request = 0)
        : t_(t), id_(t != nullptr ? t->begin(std::move(name), request) : -1) {}
    ~Scope() {
      if (t_ != nullptr) t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// mkdtemp(3) directory under `base`, removed with everything in it when
/// the object dies — an aborted run leaves nothing behind and two
/// concurrent runs never share a journal path.
class TempDir {
 public:
  TempDir(const std::string& base, const std::string& prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Recursively delete `path` (a file or a directory tree); missing is fine.
void remove_tree(const std::string& path);

/// User+system CPU seconds of this process and of its reaped children.
struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
  [[nodiscard]] double total() const { return self_s + children_s; }
};
CpuTimes cpu_times();

/// Peak resident set (ru_maxrss) of this process, in MiB. Forked dist
/// workers are left out: they start as copies of this process, so their
/// peak mostly says which of its pages happened to be resident at fork.
double peak_rss_mb();

/// Busy-spin `threads` threads for `seconds`, so a host that parks idle
/// vCPUs has woken them before a multi-core workload is timed.
void spin_cores(int threads, double seconds);

/// Pins the calling thread, and every thread or process it creates
/// meanwhile, to `count` CPUs: the one it runs on now and the next ones it
/// may use. Restores the previous mask when it dies. The calibration then
/// runs on exactly the CPUs the workload does; unpinned, a pass (which runs
/// on the driver's campaign thread, or in a forked worker) and the
/// calibration can land on vCPUs whose neighbours load them differently.
class CpuPin {
 public:
  explicit CpuPin(int count);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  /// The CPUs pinned to; empty when the host refused.
  [[nodiscard]] const std::vector<int>& cpus() const { return cpus_; }

 private:
  std::vector<int> cpus_;
  std::vector<unsigned char> saved_;  // the previous cpu_set_t, as bytes
};

/// What the numbers were measured on.
struct Fingerprint {
  std::string cpu_model;
  int nproc = 0;
  std::string simd_isa;   // avx2+pclmul | neon | scalar
  bool force_scalar = false;
  std::string build_type;
  std::string sanitizer;  // none | address | thread
  bool optimized = false;
  /// A build whose timings must not be reported as gated numbers.
  [[nodiscard]] bool timing_unsafe() const {
    return !optimized || sanitizer != "none";
  }
  [[nodiscard]] std::string json() const;
};
Fingerprint fingerprint();

}  // namespace psync_bench
