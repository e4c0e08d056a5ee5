// perfbench: one process, one workload, one seed. Builds the deployment
// several times to time set-up, runs the closed loop for --seconds, checks
// every reply, and prints one JSON result as the last stdout line:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
//   perfbench --workload proxy_rpc|adapt_loop|trader_churn --seed N
//             --seconds S --trace 0|1 --end-to-end NAMES --per-layer NAMES
//             [--spans-out FILE]
//   perfbench --self-test --end-to-end NAMES --per-layer NAMES
//
// NAMES are the comma-separated metric names BENCHMARK.json declares; a run
// fails, printing no result, unless it reports exactly the declared names
// of its kind.
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <iostream>
#include <string>

#include "base/logging.h"
#include "workloads.h"

namespace perfbench {
int self_test(const std::vector<std::string>& end_to_end,
              const std::vector<std::string>& per_layer);
}  // namespace perfbench

namespace {

using namespace perfbench;

/// Deployments built per run; setup_s is their median.
constexpr int kSetups = 9;
/// Reference-kernel runs before and after each set-up; the mean of the two
/// medians sets the set-up's speed.
constexpr int kReferenceRuns = 3;
/// Untimed closed-loop run between set-up and the timed phase. On a small
/// VM the first seconds of a request/response loop run slower (CPU idle
/// states and cross-CPU wake-ups adapt to the load), which would otherwise
/// land in the first windows of every run.
constexpr double kSettleSeconds = 3.0;

int usage() {
  std::cerr << "usage: perfbench --workload proxy_rpc|adapt_loop|trader_churn --seed N "
               "--seconds S --trace 0|1 --end-to-end NAMES --per-layer NAMES "
               "[--spans-out FILE]\n"
               "       perfbench --self-test --end-to-end NAMES --per-layer NAMES\n";
  return 2;
}

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "proxy_rpc") return make_proxy_rpc(seed);
  if (name == "adapt_loop") return make_adapt_loop(seed);
  if (name == "trader_churn") return make_trader_churn(seed);
  return nullptr;
}

/// Confines the process, and every thread it starts later, to one CPU: the
/// last one it may use. On a small VM a request/response hop between two
/// CPUs waits for the hypervisor to wake the idle one, and that wait, not
/// the program, then dominates and varies the figures (wall time for the
/// same adapt_loop work varied 2x across runs on four CPUs). On one CPU
/// every hop is a local context switch, so the figures measure the stack.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

/// The end-to-end metrics, with times and rates stated at the reference
/// speed (see Reference). The raw figures go to a comment line.
void end_to_end(const Phase& phase, double setup_s, Result& out) {
  out.set("setup_s", setup_s, "s");
  out.set("ops_per_s", phase.ops_per_s(true), "1/s");
  out.set("op_p50_us", phase.latency_us(kPrimary, 50, true), "us");
  out.set("cpu_us_per_op", phase.cpu_us_per_op(true), "us");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("bulk_p50_us", phase.latency_us(kBulk, 50, true), "us");
  out.set("adapt_p50_us", phase.latency_us(kAdapt, 50, true), "us");
  out.set("write_p50_us", phase.latency_us(kWrite, 50, true), "us");
  const double raw[] = {phase.ops_per_s(false), phase.latency_us(kPrimary, 50, false),
                        phase.latency_us(kPrimary, 99, false), phase.cpu_us_per_op(false),
                        phase.latency_us(kBulk, 50, false), phase.latency_us(kAdapt, 50, false),
                        phase.latency_us(kWrite, 50, false)};
  std::cout << "# slowdown=" << phase.slowdown() << " raw: ops_per_s=" << raw[0]
            << " op_p50_us=" << raw[1]
            << " op_p99_us=" << raw[2] << " cpu_us_per_op=" << raw[3]
            << " bulk_p50_us=" << raw[4] << " adapt_p50_us=" << raw[5]
            << " write_p50_us=" << raw[6] << "\n";
  std::cout << "# samples: op=" << phase.samples[kPrimary] << " bulk=" << phase.samples[kBulk]
            << " adapt=" << phase.samples[kAdapt] << " write=" << phase.samples[kWrite]
            << " windows=" << phase.windows.size() << " wall_s=" << phase.wall_s << "\n";
  std::cout << "# window ops/s@reference_us:";
  for (const Window& w : phase.windows) {
    std::cout << " " << static_cast<int>(static_cast<double>(w.ops) / w.wall_s) << "@"
              << static_cast<int>(w.reference_ns / 1000.0);
  }
  std::cout << "\n";
}

/// Empty when `result` holds exactly the metrics `expected` names.
std::string missing_or_extra(const Result& result, const std::vector<std::string>& expected) {
  for (const std::string& name : expected) {
    if (result.metrics.count(name) == 0) return "metric not reported: " + name;
  }
  for (const auto& [name, metric] : result.metrics) {
    if (std::find(expected.begin(), expected.end(), name) == expected.end()) {
      return "metric not declared: " + name;
    }
  }
  return "";
}

int run(const std::string& name, uint64_t seed, double seconds, bool trace,
        const std::vector<std::string>& expected, const std::string& spans_out) {
  auto workload = make_workload(name, seed);
  if (!workload) return usage();

  // Each set-up is stated at the reference speed measured just before it.
  std::vector<double> setups;
  std::cout << "# setup_s raw/slowdown:";
  for (int i = 0; i < kSetups; ++i) {
    const double before = reference().median_ns(kReferenceRuns);
    const uint64_t start = now_ns();
    workload->setup(i);
    const double raw = static_cast<double>(now_ns() - start) / 1e9;
    const double slow = slowdown((before + reference().median_ns(kReferenceRuns)) / 2.0);
    setups.push_back(raw / slow);
    std::cout << " " << raw << "/" << slow;
    if (i + 1 < kSetups) workload->teardown();
  }
  std::cout << "\n";

  (void)workload->run(kSettleSeconds, false);

  Result result;
  Tally all;
  if (!trace) {
    const Phase phase = workload->run(seconds, false);
    const std::pair<OpClass, double> reported[] = {
        {kPrimary, 50}, {kBulk, 50}, {kAdapt, 50}, {kWrite, 50}};
    for (const auto& [cls, p] : reported) {
      if (!percentile_reportable(phase.tally.us[cls].size(), p)) {
        std::cerr << "perfbench: p" << p << " of op class " << cls << " is not reportable from "
                  << phase.tally.us[cls].size() << " samples; run longer\n";
        return 1;
      }
    }
    end_to_end(phase, median(setups), result);
    all = phase.tally;
  } else {
    // An untraced then a traced phase, each on a fresh deployment so both
    // do the same work: their throughput difference is the benchmark's own
    // tracing overhead.
    const Phase plain = workload->run(seconds / 2, false);
    workload->teardown();
    workload->setup(kSetups);
    (void)workload->run(kSettleSeconds, false);
    tracer().set_enabled(true);
    const Phase traced = workload->run(seconds / 2, true);
    tracer().set_enabled(false);
    workload->per_layer(traced, result);
    // The primary class's tail: per-layer, not end-to-end, because it did
    // not repeat within a tenth across seeds (see README).
    if (!percentile_reportable(traced.tally.us[kPrimary].size(), 99)) {
      std::cerr << "perfbench: op_p99_us is not reportable from "
                << traced.tally.us[kPrimary].size() << " samples; run longer\n";
      return 1;
    }
    result.set("op_p99_us", traced.latency_us(kPrimary, 99, true), "us");
    const double base = plain.ops_per_s(true);
    const double with_spans = traced.ops_per_s(true);
    result.set("bench.trace_overhead_pct", base > 0 ? (base - with_spans) / base * 100.0 : 0.0,
               "pct");
    if (!spans_out.empty() && !tracer().write_jsonl(spans_out)) {
      std::cerr << "perfbench: cannot write spans to " << spans_out << "\n";
      return 1;
    }
    all = plain.tally;
    all.merge(traced.tally);
  }
  workload->teardown();

  const std::string mismatch = missing_or_extra(result, expected);
  if (!mismatch.empty()) {
    std::cerr << "perfbench: " << mismatch << "\n";
    return 4;
  }
  result.correct = all.correct;
  result.attempted = all.attempted;
  result.failed = all.failed;
  std::cout << result.to_json() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  std::vector<std::string> end_to_end_names;
  std::vector<std::string> per_layer_names;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--end-to-end" && has_value) {
      end_to_end_names = split_names(argv[++i]);
    } else if (arg == "--per-layer" && has_value) {
      per_layer_names = split_names(argv[++i]);
    } else if (arg == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (self_test) return perfbench::self_test(end_to_end_names, per_layer_names);
  if (workload.empty() || seconds <= 0 || (trace != 0 && trace != 1)) return usage();
  const std::string names_error = check_metric_names(end_to_end_names, per_layer_names);
  if (!names_error.empty()) {
    std::cerr << "perfbench: " << names_error << "\n";
    return 3;
  }
  adapt::set_log_level(adapt::LogLevel::Warn);
  if (!pin_to_one_cpu()) std::cerr << "perfbench: could not pin to one CPU; running unpinned\n";
  try {
    return run(workload, seed, seconds, trace == 1,
               trace == 1 ? per_layer_names : end_to_end_names, spans_out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
