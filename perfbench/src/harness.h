// Measurement harness shared by the perfbench workloads: nearest-rank
// percentiles, seeded op streams, the benchmark's own in-memory spans, the
// result record printed as the last stdout line, and process resource
// readings. Nothing here reaches into the program under test.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

// ---- statistics ---------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of `samples`; sorts in place.
/// Returns nullopt for an empty sample.
std::optional<double> percentile(std::vector<double>& samples, double p);

/// True when the nearest-rank p-th percentile of n samples has at least
/// `beyond` samples above its rank — the rule for the highest percentile a
/// run may report (p99 needs n >= 1000 with beyond = 10).
bool percentile_reportable(size_t n, double p, size_t beyond = 10);

/// Median of `values` (mean of the middle two for an even count).
double median(std::vector<double> values);

// ---- seeded streams -------------------------------------------------------

/// SplitMix64 step: derives independent sub-seeds (per client, per stream)
/// from the run's --seed.
uint64_t mix_seed(uint64_t seed, uint64_t stream);

/// Deterministic generator for one client's op sequence.
class OpStream {
 public:
  OpStream(uint64_t seed, uint64_t stream) : rng_(mix_seed(seed, stream)) {}
  /// Uniform in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }
  /// Uniform integer in [lo, hi].
  uint64_t between(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng_);
  }
  /// Index in [0, n) with probability proportional to 1/(i+1) (Zipf s=1).
  size_t zipf(size_t n);

 private:
  std::mt19937_64 rng_;
};

// ---- spans ----------------------------------------------------------------

/// One benchmark span: a timed call into a layer's public function. Spans of
/// one op share `op`; `parent` is the index of the enclosing span or -1.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t op = 0;
  [[nodiscard]] double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1000.0;
  }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once,
/// children are clipped to the parent).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// In-memory span store. Disabled (the untraced phase) it records nothing
/// and a ScopedSpan costs one relaxed load. It keeps the first `max_spans`
/// spans and drops later ones, so a traced phase's memory and span file
/// stay bounded; the per-layer percentiles come from the spans kept.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 200000;
  explicit Tracer(size_t max_spans = kMaxSpans) : max_spans_(max_spans) {}
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Reserves a slot for an open span; returns its index, or -1 when full.
  int64_t open(const char* name, uint64_t op, int64_t parent);
  void close(int64_t index);
  [[nodiscard]] std::vector<Span> snapshot() const;
  /// Durations (µs) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Writes one JSON line per span, then one summary line per span name
  /// (count, p50 duration, p50 self time).
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  const size_t max_spans_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span on a tracer; nests through a thread-local parent stack so the
/// caller never passes parents around.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t index_ = -1;
  int64_t saved_parent_ = -1;
};

// ---- results ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run prints as its last stdout line.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  [[nodiscard]] std::string to_json() const;
};

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 chars.
bool valid_metric_name(const std::string& name);
/// Checks every name, and that there are at most 16 end-to-end and at most
/// 128 per-layer names. Returns an error message, empty when valid.
std::string check_metric_names(const std::vector<std::string>& end_to_end,
                               const std::vector<std::string>& per_layer);

/// Splits a comma-separated list of metric names (empty items dropped).
std::vector<std::string> split_names(const std::string& csv);

// ---- process resources ------------------------------------------------------

/// User + system CPU time of the whole process, microseconds.
double process_cpu_us();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

// ---- machine speed ----------------------------------------------------------

/// The reference kernel: a fixed piece of work compiled into the benchmark,
/// independent of the program under test, whose wall time tracks how fast
/// the machine runs this kind of code at the moment. It mixes what the
/// workloads spend their time on: loopback TCP round trips between two
/// threads (syscalls, wake-ups, the TCP stack) and allocation-heavy
/// user-space work (strings, a hash map, a sort). The end-to-end times are
/// stated at the kernel's reference speed, so a shared host that runs
/// everything slower for a while does not read as a regression.
class Reference {
 public:
  Reference();
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;
  /// Runs the kernel once; returns its wall time in ns.
  double run_ns();
  /// Median wall time of `n` runs, in ns.
  double median_ns(int n);

 private:
  int client_ = -1;
  int server_ = -1;
  std::thread echo_;
  uint64_t sink_ = 0;
};

/// The process's reference kernel (started on first use).
Reference& reference();

/// Wall time of one reference-kernel run at the reference speed: the median
/// measured on a quiet 4-vCPU Xeon VM with the process pinned to one CPU.
inline constexpr double kReferenceNs = 1.0e6;

/// How much slower than the reference speed the machine ran while the
/// kernel took `measured_ns`: divide times by it, multiply rates by it.
inline double slowdown(double measured_ns) {
  return measured_ns > 0 ? measured_ns / kReferenceNs : 1.0;
}

}  // namespace perfbench
