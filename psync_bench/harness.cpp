#include "harness.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "psync/common/simd_dispatch.hpp"

namespace psync_bench {

double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- Calibrator -----------------------------------------------------------

namespace {

constexpr std::size_t kFftN = 1u << 16;
constexpr std::size_t kFftLog2 = 16;
constexpr int kFftRounds = 6;
constexpr std::size_t kChaseL2Entries = 1u << 18;   // 1 MiB of uint32
constexpr std::size_t kChaseL2Steps = 1u << 21;
constexpr std::size_t kArenaWords = 1u << 16;  // 512 KiB
constexpr std::size_t kArenaBlocks = 80000;
constexpr std::uint64_t kHashSteps = 1u << 23;

/// Median seconds of each part on the reference host (4-vCPU Xeon,
/// model 207, KVM) in its fast state; the unit slowdown() measures in.
constexpr CalSample kReference = {0.0097, 0.0155, 0.0047, 0.0166};

std::uint64_t splitmix(std::uint64_t* s) {
  std::uint64_t z = (*s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Sattolo's shuffle: one cycle through every entry, so a chase visits the
/// whole table and each load depends on the previous one.
std::vector<std::uint32_t> random_cycle(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) next[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(next[i], next[splitmix(&seed) % i]);
  }
  return next;
}

}  // namespace

double slowdown(const CalSample& s, const CalMix& mix) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t p = 0; p < kCalParts; ++p) {
    num += mix[p] * s[p] / kReference[p];
    den += mix[p];
  }
  return den > 0.0 ? num / den : 1.0;
}

Calibrator::Calibrator(int lanes) {
  twiddle_.resize(kFftN / 2);
  for (std::size_t j = 0; j < kFftN / 2; ++j) {
    const double a = -2.0 * std::numbers::pi * static_cast<double>(j) /
                     static_cast<double>(kFftN);
    twiddle_[j] = {std::cos(a), std::sin(a)};
  }
  bitrev_.resize(kFftN);
  for (std::size_t i = 0; i < kFftN; ++i) {
    std::uint32_t r = 0;
    for (std::size_t b = 0; b < kFftLog2; ++b) {
      r |= static_cast<std::uint32_t>(((i >> b) & 1u) << (kFftLog2 - 1 - b));
    }
    bitrev_[i] = r;
  }
  std::uint64_t s = 0x5eed;
  fft_in_.resize(kFftN);
  for (auto& x : fft_in_) {
    x = {static_cast<double>(splitmix(&s) >> 11) * 0x1.0p-53 - 0.5,
         static_cast<double>(splitmix(&s) >> 11) * 0x1.0p-53 - 0.5};
  }
  lanes_.resize(static_cast<std::size_t>(std::max(1, lanes)));
  for (auto& l : lanes_) {
    l.fft_buf.resize(kFftN);
    l.arena.resize(kArenaWords);
  }
  next_l2_ = random_cycle(kChaseL2Entries, 7);
}

std::uint64_t Calibrator::fft_round(std::complex<double>* buf) const {
  // Plain local pointers: through the members, every butterfly reloads the
  // vectors' data pointers and the loop runs several times slower.
  const std::complex<double>* tw = twiddle_.data();
  for (std::size_t i = 0; i < kFftN; ++i) buf[bitrev_[i]] = fft_in_[i];
  for (std::size_t half = 1; half < kFftN; half <<= 1) {
    const std::size_t stride = kFftN / (2 * half);
    for (std::size_t base = 0; base < kFftN; base += 2 * half) {
      for (std::size_t j = 0; j < half; ++j) {
        const std::complex<double> t = tw[j * stride] * buf[base + j + half];
        const std::complex<double> u = buf[base + j];
        buf[base + j] = u + t;
        buf[base + j + half] = u - t;
      }
    }
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &buf[kFftN / 3], sizeof(bits));
  return bits;
}

std::uint64_t Calibrator::chase(const std::vector<std::uint32_t>& next,
                                std::size_t steps) {
  std::uint32_t p = 0;
  for (std::size_t i = 0; i < steps; ++i) p = next[p];
  return p;
}

std::uint64_t Calibrator::arena_round(std::uint64_t* arena) {
  // Allocator-style bookkeeping: blocks of 64 B to 4 KiB come from a small
  // free list or a bump pointer and are filled. Unlike malloc, where the
  // blocks land does not depend on where this process's heap was mapped,
  // which made a malloc-based part read 7 or 12 ms from one run to the next.
  std::size_t free_list[64];
  std::size_t n_free = 0;
  std::size_t top = 0;
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k < kArenaBlocks; ++k) {
    const std::size_t words = 8 + (k * 37) % 500;
    std::size_t off = top;
    if (n_free > 0 && (k & 1) != 0) {
      off = free_list[--n_free];
    } else {
      top = (top + 512) & (kArenaWords - 1);
    }
    std::uint64_t* p = arena + (off & (kArenaWords - 512));
    for (std::size_t w = 0; w < words; ++w) p[w] = w ^ k;
    acc += p[words / 2];
    if (n_free < 64) free_list[n_free++] = off;
  }
  return acc;
}

std::uint64_t Calibrator::hash_round() {
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  for (std::uint64_t i = 0; i < kHashSteps; ++i) {
    h ^= i;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 29;
  }
  return h;
}

CalSample Calibrator::run_lane(Lane& lane) const {
  CalSample s{};
  std::uint64_t acc = 0;
  double t = now_s();
  const auto lap = [&](CalPart part) {
    const double t1 = now_s();
    s[part] = t1 - t;
    t = t1;
  };
  for (int r = 0; r < kFftRounds; ++r) acc ^= fft_round(lane.fft_buf.data());
  lap(kCalFft);
  acc ^= chase(next_l2_, kChaseL2Steps);
  lap(kCalChaseL2);
  acc ^= arena_round(lane.arena.data());
  lap(kCalArena);
  acc ^= hash_round();
  lap(kCalHash);
  asm volatile("" : : "r"(acc) : "memory");  // keep every part's work
  return s;
}

CalSample Calibrator::run() {
  CalSample mean{};
  if (lanes_.size() == 1) {
    mean = run_lane(lanes_[0]);
  } else {
    // Every lane at once, one per core the workload keeps busy; the mean
    // part time is what the workload's threads, spread over those cores,
    // would see.
    std::vector<CalSample> each(lanes_.size());
    {
      std::vector<std::jthread> pool;
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        pool.emplace_back([this, i, &each] { each[i] = run_lane(lanes_[i]); });
      }
    }  // joined here, on every path
    for (const auto& l : each) {
      for (std::size_t p = 0; p < kCalParts; ++p) {
        mean[p] += l[p] / static_cast<double>(each.size());
      }
    }
  }
  samples_.push_back(mean);
  return mean;
}

std::vector<double> Calibrator::totals() const {
  std::vector<double> t;
  for (const auto& s : samples_) {
    double sum = 0.0;
    for (const double x : s) sum += x;
    t.push_back(sum);
  }
  return t;
}

// --- Tracer ---------------------------------------------------------------

int Tracer::begin(std::string name, std::uint64_t request) {
  Span s;
  s.name = std::move(name);
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(std::string name, double start_s, double end_s,
                std::uint64_t request, int parent) {
  Span s;
  s.name = std::move(name);
  s.start_s = start_s;
  s.end_s = end_s;
  s.request = request;
  s.parent = parent != kOpenParent ? parent : open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::total(const std::string& name) const {
  double t = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) t += s.end_s - s.start_s;
  }
  return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> d;
  for (const auto& s : spans_) {
    if (s.name == name) d.push_back(s.end_s - s.start_s);
  }
  return d;
}

std::map<std::string, double> Tracer::self_times() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    self[s.name] += std::max(0.0, s.end_s - s.start_s - child[i]);
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<int>(s.name.find('.') == std::string::npos
                                       ? s.name.size()
                                       : s.name.find('.')),
                  s.name.c_str(), (s.start_s - origin) * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- TempDir --------------------------------------------------------------

TempDir::TempDir(const std::string& base, const std::string& prefix) {
  ::mkdir(base.c_str(), 0755);  // may exist already
  std::string templ = base + "/" + prefix + "XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw std::runtime_error("mkdtemp under '" + base +
                             "' failed: " + std::strerror(errno));
  }
  path_ = buf.data();
}

TempDir::~TempDir() { remove_tree(path_); }

void remove_tree(const std::string& path) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    if (DIR* d = ::opendir(path.c_str())) {
      while (const dirent* e = ::readdir(d)) {
        const std::string n = e->d_name;
        if (n == "." || n == "..") continue;
        remove_tree(path + "/" + n);
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  } else {
    ::unlink(path.c_str());
  }
}

// --- resources ------------------------------------------------------------

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

CpuTimes cpu_times() {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return {tv_s(self.ru_utime) + tv_s(self.ru_stime),
          tv_s(kids.ru_utime) + tv_s(kids.ru_stime)};
}

double peak_rss_mb() {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // KiB on Linux
}

void spin_cores(int threads, double seconds) {
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::jthread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&sink, i](std::stop_token stop) {
      std::uint64_t x = static_cast<std::uint64_t>(i) + 1;
      while (!stop.stop_requested()) {
        for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ULL + 1;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}  // each jthread is asked to stop and joined as `pool` dies

CpuPin::CpuPin(int count) {
  cpu_set_t old;
  CPU_ZERO(&old);
  const int here = ::sched_getcpu();
  if (here < 0 || ::sched_getaffinity(0, sizeof(old), &old) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  for (int k = 0; k < CPU_SETSIZE && static_cast<int>(cpus.size()) < count; ++k) {
    const int cpu = (here + k) % CPU_SETSIZE;
    if (!CPU_ISSET(cpu, &old)) continue;
    CPU_SET(cpu, &set);
    cpus.push_back(cpu);
  }
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) return;
  saved_.resize(sizeof(old));
  std::memcpy(saved_.data(), &old, sizeof(old));
  cpus_ = std::move(cpus);
}

CpuPin::~CpuPin() {
  if (saved_.empty()) return;
  cpu_set_t old;
  std::memcpy(&old, saved_.data(), sizeof(old));
  ::sched_setaffinity(0, sizeof(old), &old);
}

// --- fingerprint ----------------------------------------------------------

Fingerprint fingerprint() {
  Fingerprint f;
  std::ifstream cpu("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpu, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) f.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (f.cpu_model.empty()) f.cpu_model = "unknown";
  f.nproc = static_cast<int>(std::thread::hardware_concurrency());
  f.force_scalar = psync::simd::force_scalar();
  if (psync::simd::have_neon()) {
    f.simd_isa = "neon";
  } else if (psync::simd::have_avx2()) {
    f.simd_isa = psync::simd::have_pclmul() ? "avx2+pclmul" : "avx2";
  } else {
    f.simd_isa = "scalar";
  }
  f.build_type = PSYNC_BENCH_BUILD_TYPE;
#if defined(__SANITIZE_ADDRESS__)
  f.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  f.sanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  f.sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  f.sanitizer = "thread";
#else
  f.sanitizer = "none";
#endif
#else
  f.sanitizer = "none";
#endif
#if defined(__OPTIMIZE__)
  f.optimized = true;
#endif
  return f;
}

std::string Fingerprint::json() const {
  std::ostringstream os;
  std::string model;
  for (const char c : cpu_model) {
    if (c == '"' || c == '\\') model.push_back('\\');
    model.push_back(c);
  }
  os << "{\"cpu_model\":\"" << model << "\",\"nproc\":" << nproc
     << ",\"simd_isa\":\"" << simd_isa
     << "\",\"psync_force_scalar\":" << (force_scalar ? "true" : "false")
     << ",\"build_type\":\"" << build_type << "\",\"sanitizer\":\""
     << sanitizer << "\",\"optimized\":" << (optimized ? "true" : "false")
     << '}';
  return os.str();
}

}  // namespace psync_bench
