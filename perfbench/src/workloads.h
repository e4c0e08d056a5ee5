// The three perfbench workloads and the pieces of a deployment they share.
// Every workload drives the real stack over loopback TCP through public
// functions only, and times each layer from outside.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/infrastructure.h"
#include "harness.h"
#include "monitor/monitor.h"
#include "orb/orb.h"
#include "trading/trader.h"

namespace perfbench {

/// Op classes; every workload runs all four so every end-to-end metric has
/// samples in every workload (see README: primary/foreign shares).
enum OpClass : size_t { kPrimary = 0, kBulk = 1, kAdapt = 2, kWrite = 3, kClasses = 4 };

/// Latency samples (µs) per op class plus op accounting for one thread. The
/// samples are those of the current window only: each window cut moves them
/// out, so the benchmark's own memory does not grow with the op count.
struct Tally {
  std::vector<double> us[kClasses];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  /// Records a failed or refused op (and an incorrect one, when `wrong`).
  void fail(bool wrong = false) {
    ++failed;
    if (wrong) correct = false;
  }
  /// Adds `other`'s op accounting (not its samples).
  void merge(const Tally& other);
};

/// A slice of a phase: its ops, CPU and how much slower than the reference
/// speed it ran.
struct Window {
  double wall_s = 0;
  double cpu_us = 0;
  double reference_ns = 0;  // mean of the kernel times just before and after
  double slowdown = 1;      // perfbench::slowdown(reference_ns)
  uint64_t ops = 0;         // completed ops
};

/// One timed phase of a workload, cut into windows. With `at_reference`
/// its figures are stated at the reference speed: every window's wall and
/// CPU time, and every latency sample, divided by that window's slowdown.
/// Without, they are as measured.
struct Phase {
  /// Samples per class kept for percentiles: a uniform seeded reservoir
  /// sample, so the benchmark's memory stays fixed whatever the op count.
  static constexpr size_t kPoolCap = 100000;
  Tally tally;  // op accounting; us[] holds the reservoir of measured samples
  std::vector<double> at_reference_us[kClasses];  // the same samples / their window's slowdown
  std::vector<Window> windows;
  uint64_t samples[kClasses] = {};  // all samples seen, per class
  double sum_us[kClasses] = {};     // their sum (measured)
  double wall_s = 0;                // sum of window wall times
  [[nodiscard]] uint64_t completed() const { return tally.attempted - tally.failed; }
  /// Completed ops per (reference) second.
  [[nodiscard]] double ops_per_s(bool at_reference) const;
  /// Process CPU per completed op, µs.
  [[nodiscard]] double cpu_us_per_op(bool at_reference) const;
  /// Nearest-rank p-th latency percentile of class `cls`, µs.
  [[nodiscard]] double latency_us(OpClass cls, double p, bool at_reference) const;
  /// Median slowdown over the windows.
  [[nodiscard]] double slowdown() const;
};

/// Builds a Phase window by window. begin() times the reference kernel and
/// starts a window; cut() ends it, takes the samples its tallies gathered
/// since begin() and clears them, and times the kernel again. Both are
/// called while no op is in flight, so the kernel has the process to
/// itself. Used by every workload, so all cut windows alike.
class PhaseBuilder {
 public:
  explicit PhaseBuilder(std::vector<Tally*> tallies) : tallies_(std::move(tallies)) {}
  void begin();
  void cut();
  /// The phase; op accounting is the sum over the tallies.
  Phase finish();

 private:
  [[nodiscard]] uint64_t completed() const;
  std::vector<Tally*> tallies_;
  Phase phase_;
  std::mt19937_64 reservoir_rng_{0x5eed};
  double reference_ns_ = 0;
  uint64_t start_ns_ = 0;
  double start_cpu_ = 0;
  uint64_t start_completed_ = 0;
};

/// One op of a closed-loop client: (client index, its tally, its op count,
/// op id). Runs under the op's root span.
using ClientOp = std::function<void(size_t, Tally&, uint64_t, uint64_t)>;

/// Ops run alone at the start of a window: (their tally, window index).
using SoloOps = std::function<void(Tally&, uint64_t)>;

/// Runs `clients` closed-loop threads calling `op` for windows of
/// `window_s` until `seconds` are covered. Between windows the clients park
/// (each finishes its op in flight) while the reference kernel runs; then
/// `solo` runs, with no other op in flight, before the clients resume. A
/// workload times there the op classes that are not its point, so their
/// latency does not depend on how they interleave with the closed loop.
Phase run_clients(size_t clients, double seconds, double window_s, const ClientOp& op,
                  const SoloOps& solo);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the deployment and warms it up: every client bound and through
  /// its first op. `attempt` keeps ORB names unique across repeated set-ups.
  virtual void setup(int attempt) = 0;
  /// Tears the deployment down (idempotent).
  virtual void teardown() = 0;
  /// Runs the closed loop for `seconds` (adapt_loop: a fixed virtual span of
  /// 200 steps per second asked for). Per-layer probes run only when traced.
  virtual Phase run(double seconds, bool traced) = 0;
  /// Per-layer metrics of the last traced phase (counts, ratios, probes).
  virtual void per_layer(const Phase& traced, Result& out) = 0;
};

std::unique_ptr<Workload> make_proxy_rpc(uint64_t seed);
std::unique_ptr<Workload> make_adapt_loop(uint64_t seed);
std::unique_ptr<Workload> make_trader_churn(uint64_t seed);

/// The benchmark's span store (enabled only in the traced phase).
Tracer& tracer();
/// Fresh op id shared by the spans of one op.
uint64_t next_op_id();

// ---- shared deployment pieces --------------------------------------------

/// E1 (paper §V) selection and the Fig. 7 interest predicate.
extern const char* const kE1Constraint;
extern const char* const kE1Preference;
extern const char* const kFig7Predicate;
extern const char* const kEvent;

/// Image size for bulk fetches: 256 x 256 = 64 KiB of payload.
inline constexpr uint32_t kImageSide = 256;
/// Distinct images a server holds (generated once per deployment).
inline constexpr uint32_t kImages = 16;

/// A server component on one simulated host: an echo/fetch/work servant,
/// its agent's LoadAvg EventMonitor and the exported offer.
struct Server {
  std::string host;
  adapt::ObjectRef provider;
  std::shared_ptr<adapt::monitor::EventMonitor> monitor;
  std::string offer_id;
};

/// Images and their checksums, shared by servers and verifying clients.
struct ImageSet {
  std::vector<std::string> images;
  std::vector<uint64_t> checksums;
  static std::shared_ptr<const ImageSet> make();
};

/// Deploys a server on a new host of `infra` through
/// ServiceAgent::create_load_monitor + export_with_load. `work_seconds` is
/// the simulated CPU each work/fetch call records on the host. Servant time
/// is recorded as "orb.servant" spans when tracing.
Server deploy_server(adapt::core::Infrastructure& infra, const std::string& host,
                     const std::string& service_type, double work_seconds,
                     std::shared_ptr<const ImageSet> images);

/// A sticky smart proxy with the E1 query, the Fig. 7 interest and a
/// select() strategy, on its own client ORB.
adapt::core::SmartProxyPtr make_e1_proxy(adapt::core::Infrastructure& infra,
                                         const std::string& service_type);

/// Checks a fetched image: parses, matches the expected index and checksum.
bool image_ok(const adapt::Value& reply, uint32_t index, const ImageSet& images);

/// Small echo argument (≤ 64 bytes on the wire): one 8–48 letter string.
adapt::ValueList small_args(OpStream& ops);

/// Sums of client-ORB counters over a set of ORBs at one moment.
struct OrbWindow {
  uint64_t bytes = 0, opened = 0, reused = 0, retries = 0, transport_errors = 0, timeouts = 0;
  static OrbWindow of(const std::vector<adapt::orb::OrbPtr>& orbs);
  OrbWindow operator-(const OrbWindow& base) const;
};

/// Process-wide counters the program exposes through obs::metrics().
struct ObsWindow {
  uint64_t lint_analyzed = 0, lint_cache_hit = 0, spans = 0;
  static ObsWindow now();
};

/// In traced phases: times encode/decode of a real request/reply pair.
void probe_wire(const std::string& object_id, const std::string& operation,
                const adapt::ValueList& args, const adapt::Value& result, uint64_t op);

/// Private script engine + BasicMonitor wrapper for timing the Fig. 7
/// predicate's compile and call outside the monitor.
class PredicateProbe {
 public:
  PredicateProbe();
  void run(uint64_t op);

 private:
  std::shared_ptr<adapt::script::ScriptEngine> engine_;
  std::shared_ptr<adapt::monitor::BasicMonitor> monitor_;
  adapt::Value wrapper_;
  adapt::Value predicate_;
};

/// One closed-loop client of proxy_rpc / trader_churn: a sticky E1 proxy and
/// a TraderClient sharing the proxy's client ORB (one connection per
/// endpoint).
struct ProxyClient {
  adapt::core::SmartProxyPtr proxy;
  std::unique_ptr<adapt::trading::TraderClient> trader;
  std::unique_ptr<PredicateProbe> predicate;  // built by the first traced phase
};

/// One invoke through `proxy`, timed into `cls` — or into kAdapt when
/// SmartProxy::events_handled() advanced during it. Traced, pending events
/// are first handled explicitly ("core.handle_events") and the invoke that
/// follows is "core.forward". Returns nullopt after counting a failure.
std::optional<adapt::Value> proxy_op(adapt::core::SmartProxy& proxy,
                                     const std::string& operation,
                                     const adapt::ValueList& args, OpClass cls, bool traced,
                                     Tally& tally, uint64_t op);

/// A remote trader `modify` of one static property, timed as kWrite and read
/// back with Trader::describe. Traced, the same modify is mirrored in-process
/// ("trading.write_local").
void modify_op(adapt::trading::TraderClient& client, adapt::trading::Trader& trader,
               const std::string& offer_id, const std::string& property, double value,
               bool traced, Tally& tally, uint64_t op);

/// The trader-side probes of an adaptation (traced only): parse of the E1
/// strings, the E1 query in-process (with its evalDP count) and remote.
struct QueryProbe {
  std::mutex mu;  // serializes probes so the evalDP delta is the probe's own
  uint64_t queries = 0, results = 0, dynamic_evals = 0;  // guarded by mu
  void run(adapt::trading::Trader& trader, adapt::trading::TraderClient& remote,
           const std::string& service_type, uint64_t op);
};

/// Ops shared by proxy_rpc and trader_churn: echo (traced: also a direct
/// Orb::invoke and a wire probe every `probe_every`), fetch, and an explicit
/// strategy activation.
void echo_op(ProxyClient& c, OpStream& ops, bool traced, Tally& tally, uint64_t op,
             uint64_t n, uint64_t probe_every);
void fetch_op(ProxyClient& c, OpStream& ops, const ImageSet& images, bool traced, Tally& tally,
              uint64_t op, uint64_t n, uint64_t probe_every);
void adapt_op(ProxyClient& c, OpStream& ops, adapt::trading::Trader& trader,
              QueryProbe& probe, bool traced, Tally& tally, uint64_t op);

/// Writes the per-layer metrics every workload derives the same way from
/// the traced phase: span percentiles plus the counter windows below.
struct LayerInputs {
  OrbWindow orb;  // client ORBs over the traced phase
  ObsWindow obs_before, obs_after;
  uint64_t events_handled = 0, rebinds = 0;
  uint64_t monitor_updates = 0, notifications = 0;
  uint64_t queries = 0, results = 0;            // trader answers seen by the workload
  uint64_t dyn_queries = 0, dynamic_evals = 0;  // around in-process probe queries
};
void common_layers(const Phase& traced, const LayerInputs& in, Result& out);

}  // namespace perfbench
