// The mini-ORB: object adapter + dynamic invocation + transports.
//
// Responsibilities (mirroring the CORBA pieces the paper builds on):
//  * Object adapter: register/unregister servants, mint ObjectRefs.
//  * DII: invoke(ref, operation, args) builds a request at run time — no
//    stubs, no compiled types.
//  * DSI: incoming requests are funneled to Servant::dispatch.
//  * Transports: a TCP listener (optional) plus an in-process transport.
//    Several ORBs in one process model several hosts; in-process calls still
//    marshal through the full wire format so experiments exercise exactly
//    the code path of a networked deployment.
//  * Built-in operations on every object: "_ping" (liveness) and
//    "_interface" (reflection: the servant's interface name).
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "base/value.h"
#include "obs/trace.h"
#include "orb/admission.h"
#include "orb/errors.h"
#include "orb/interface_repo.h"
#include "orb/servant.h"
#include "orb/stats.h"
#include "orb/tcp_transport.h"
#include "orb/wire.h"

namespace adapt::orb {

/// Client-side retry policy for idempotent operations over TCP. Attempts
/// are separated by exponential backoff with jitter and always bounded by
/// the call's deadline; non-idempotent operations get exactly one attempt
/// regardless (re-executing them is not safe).
struct RetryPolicy {
  /// Total attempts including the first (1 disables retries).
  int max_attempts = 3;
  /// Delay before the first retry, seconds.
  double initial_backoff = 0.02;
  /// Backoff growth factor per retry.
  double backoff_multiplier = 2.0;
  /// Upper bound on a single backoff delay, seconds.
  double max_backoff = 0.5;
  /// Random extra delay, as a fraction of the backoff ([0, jitter)).
  double jitter = 0.5;
};

/// Per-call overrides for Orb::invoke.
struct InvokeOptions {
  /// Total budget for the call including retries, seconds; <= 0 uses the
  /// ORB's request_timeout.
  double deadline = 0.0;
  /// Overrides the operation-name idempotence classification.
  std::optional<bool> idempotent;
  /// Overrides the ORB's retry policy for this call.
  std::optional<RetryPolicy> retry;
  /// Overrides the operation-name criticality classification
  /// (OrbConfig::critical_operations): critical requests bypass the remote
  /// peer's admission control so control-plane traffic survives overload.
  std::optional<bool> critical;
};

struct OrbConfig {
  /// In-process endpoint name; auto-generated when empty. The ORB is always
  /// reachable as "inproc://<name>" within the process.
  std::string name;

  /// When true, also listen on TCP (host:port; port 0 = ephemeral).
  bool listen_tcp = false;
  std::string listen_host = "127.0.0.1";
  uint16_t listen_port = 0;

  /// Client-side bound on connect/read/write per call, seconds.
  double request_timeout = 10.0;

  /// Validate operations against the interface repository when the target
  /// reference carries a known interface name.
  bool validate_interfaces = true;

  /// Share an interface repository across ORBs; a fresh one when null.
  std::shared_ptr<InterfaceRepository> interfaces = {};

  /// Retry policy applied to idempotent operations over TCP.
  RetryPolicy retry = {};

  /// Operations safe to re-execute; retried per `retry` when a transport
  /// failure strikes. Builtins (_ping/_interface/_stats), trader queries
  /// and monitor reads by default. Per-call overridable via InvokeOptions.
  std::set<std::string> idempotent_operations = {
      "_ping",    "_interface",     "_stats",          "query",
      "getvalue", "getAspectValue", "definedAspects",  "resolve",
      "list",     "describe_type",  "list_types"};

  /// Idle TCP connections kept per endpoint (extra checkins close).
  size_t pool_max_idle_per_endpoint = 8;
  /// Idle TCP connections older than this are reaped, seconds.
  double pool_max_idle_age = 30.0;

  /// Server-side admission control: concurrent servant dispatches allowed
  /// before arrivals queue (and queued work is shed by queue delay). 0
  /// disables admission entirely — the default, so existing deployments see
  /// zero behavior change. Applies to every dispatch regardless of
  /// transport (TCP and in-process both funnel through dispatch_request).
  size_t max_in_flight_dispatches = 0;
  /// Arrivals beyond this many queued dispatches are shed immediately.
  size_t admission_queue_limit = 64;
  /// CoDel target sojourn time / control interval, seconds (see
  /// AdmissionConfig). Queue delay above target for a full interval starts
  /// shedding; successive sheds tighten as interval/sqrt(n).
  double codel_target = 0.005;
  double codel_interval = 0.1;
  /// Hard cap on time a dispatch may wait for admission, seconds.
  double admission_max_queue_wait = 1.0;

  /// Control-plane operations that admission control never sheds: liveness
  /// probes and reflection builtins, service-agent heartbeat renewal
  /// ("refresh") and trader lookups — exactly the traffic adaptation needs
  /// alive *during* overload. Per-call overridable via InvokeOptions.
  std::set<std::string> critical_operations = {
      "_ping", "_interface", "_stats", "refresh", "resolve", "query", "list"};

  /// Client-side retry/hedge budget (token bucket per endpoint): each first
  /// attempt earns `ratio` tokens up to `cap`, each retry or hedge spends
  /// one, so sustained failure caps retry amplification at ~ratio of
  /// offered load instead of multiplying it by max_attempts.
  double retry_budget_ratio = 0.1;
  double retry_budget_cap = 10.0;

  /// Server reactor tuning (effective with listen_tcp): core worker threads
  /// (0 = auto-size to the hardware) and the per-connection pending-write
  /// cap in bytes (a slow consumer exceeding it is disconnected).
  size_t reactor_workers = 0;
  size_t reactor_write_queue_cap = 8u << 20;

  /// Destination ring for this ORB's spans; the process-wide
  /// obs::default_tracer() when null (so one query API sees every ORB of an
  /// in-process deployment). Disable via tracer->set_enabled(false).
  std::shared_ptr<obs::Tracer> tracer = {};

  /// Emit the trace-context tail on outgoing *TCP* requests. Opt-in because
  /// a pre-context (v1) peer rejects frames carrying the tail ("trailing
  /// bytes in request"): enable only once every remote peer runs a release
  /// whose decoder accepts the tail. In-process invocations always
  /// propagate context — both ends live in this binary, so there is no
  /// version skew to defend against. Tracing itself stays on either way;
  /// with propagation off, each TCP hop simply roots its own trace.
  bool propagate_wire_context = false;
};

/// Point-in-time view of an ORB's overload state: the adaptation input the
/// paper's loop needs (exposed via obs gauges, Orb::overload(), the Luma
/// `orb.overload()` binding and the BasicMonitor "overload" aspect).
struct OverloadStats {
  size_t in_flight = 0;     ///< dispatches currently executing
  size_t queued = 0;        ///< dispatches waiting for admission
  size_t max_in_flight = 0; ///< configured limit (0 = admission disabled)
  size_t queue_limit = 0;   ///< configured queue bound
  uint64_t admitted = 0;    ///< process-lifetime admissions
  uint64_t shed = 0;        ///< process-lifetime sheds (overload)
  uint64_t expired = 0;     ///< process-lifetime expired-in-queue rejections
  /// Shed fraction over the current stats window (requests_shed /
  /// requests_served since the last stats_reset): the primary signal for
  /// strategy scripts — reset the window, observe, adapt.
  double shed_rate = 0.0;
};

/// OverloadStats as a Luma table (keys match the field names).
[[nodiscard]] Value overload_to_value(const OverloadStats& o);

class Orb : public std::enable_shared_from_this<Orb> {
 public:
  /// Creates and registers the ORB. Throws TransportError if the TCP
  /// listener cannot bind or Error if the inproc name is taken.
  static std::shared_ptr<Orb> create(OrbConfig config = {});
  ~Orb();
  Orb(const Orb&) = delete;
  Orb& operator=(const Orb&) = delete;

  /// Stops transports and unregisters from the in-process registry.
  /// Idempotent.
  void shutdown();

  /// Primary endpoint: the TCP endpoint when listening, else inproc.
  [[nodiscard]] const std::string& endpoint() const { return primary_endpoint_; }
  [[nodiscard]] const std::string& inproc_endpoint() const { return inproc_endpoint_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- object adapter -------------------------------------------------
  /// Registers a servant; empty id mints "obj-<n>". Throws on duplicate id.
  ObjectRef register_servant(ServantPtr servant, std::string object_id = "");
  void unregister_servant(const std::string& object_id);
  [[nodiscard]] ServantPtr find_servant(const std::string& object_id) const;
  [[nodiscard]] size_t servant_count() const;
  /// Builds a reference to a servant of this ORB.
  [[nodiscard]] ObjectRef make_ref(const std::string& object_id) const;

  // ---- dynamic invocation ------------------------------------------------
  /// Synchronous request. Throws:
  ///  * TransportError / TimeoutError — could not reach the target,
  ///  * ObjectNotFound — target ORB has no such object,
  ///  * BadOperation — interface validation failed or no such method,
  ///  * RemoteError — the servant raised an application error.
  Value invoke(const ObjectRef& ref, const std::string& operation,
               const ValueList& args = {});

  /// Like invoke, with per-call deadline / idempotence / retry overrides.
  Value invoke(const ObjectRef& ref, const std::string& operation,
               const ValueList& args, const InvokeOptions& options);

  /// Best-effort oneway request: no reply, errors are swallowed (logged).
  /// Returns false when the request could not even be handed off (transport
  /// failure, unknown object, validation) — callers tracking observer health
  /// (EventMonitor, EventChannel) use this to spot dead endpoints; everyone
  /// else may ignore it.
  bool invoke_oneway(const ObjectRef& ref, const std::string& operation,
                     const ValueList& args = {});

  /// Deferred-synchronous request (CORBA DII send_deferred analog): runs on
  /// a background thread; the future yields the result or rethrows the
  /// invocation error.
  std::future<Value> invoke_async(const ObjectRef& ref, const std::string& operation,
                                  const ValueList& args = {});

  /// Liveness probe: true iff the object answers "_ping".
  bool ping(const ObjectRef& ref);

  /// This ORB's idempotence classification for `operation`
  /// (OrbConfig::idempotent_operations). Retry layers above the transport —
  /// SmartProxy auto-failover, the lb hedging path — consult this before
  /// re-executing a request that may already have run remotely.
  [[nodiscard]] bool is_idempotent(const std::string& operation) const {
    return config_.idempotent_operations.count(operation) > 0;
  }

  /// This ORB's criticality classification for `operation`
  /// (OrbConfig::critical_operations).
  [[nodiscard]] bool is_critical(const std::string& operation) const {
    return config_.critical_operations.count(operation) > 0;
  }

  /// Spends one retry-budget token for `endpoint` if available. The lb
  /// hedging path consults this before firing a hedge so hedges and retries
  /// draw from one amplification budget per endpoint.
  bool try_spend_retry_token(const std::string& endpoint);

  [[nodiscard]] InterfaceRepository& interfaces() { return *interfaces_; }
  [[nodiscard]] std::shared_ptr<InterfaceRepository> interfaces_ptr() { return interfaces_; }

  /// Number of requests this ORB dispatched as a server (diagnostics).
  [[nodiscard]] uint64_t requests_served() const { return stats_->requests_served(); }

  /// Transport/invocation counters (also served remotely as "_stats" and to
  /// Luma via install_orb_bindings).
  [[nodiscard]] OrbStats stats() const { return stats_->snapshot(); }

  /// Zeroes the stats window (snapshot deltas; see OrbStatsCounters::reset)
  /// so benches and tests can measure from a clean baseline. Also exposed to
  /// Luma as orb.stats_reset().
  void stats_reset() { stats_->reset(); }

  /// Current overload state (admission gauges + windowed shed rate). Cheap;
  /// safe to poll from strategy scripts.
  [[nodiscard]] OverloadStats overload() const;

  /// The ring this ORB's spans land in (the process default unless
  /// OrbConfig::tracer overrode it).
  [[nodiscard]] obs::Tracer& tracer() const { return *tracer_; }

 private:
  explicit Orb(OrbConfig config);
  void start();

  Value invoke_impl(const ObjectRef& ref, const std::string& operation,
                    const ValueList& args, bool oneway, const InvokeOptions& options);
  /// invoke_impl after the client span is open: builds the request (stamping
  /// the span's context into the wire metadata) and runs the local or TCP
  /// path.
  Value invoke_traced(const ObjectRef& ref, const std::string& operation,
                      const ValueList& args, bool oneway, const InvokeOptions& options,
                      obs::ScopedSpan& span);
  /// One TCP round trip with the given remaining budget. `idempotent`
  /// lets the pool redial a stale connection even after the request was
  /// fully written (re-execution is safe for idempotent operations only).
  Value invoke_tcp_once(const ObjectRef& ref, const RequestMessage& req, bool oneway,
                        double timeout, bool idempotent);
  void validate(const ObjectRef& ref, const std::string& operation) const;

  /// Server side: executes a decoded request against the local adapter.
  ReplyMessage dispatch_request(const RequestMessage& req);
  /// Raw server entry point used by both transports.
  std::optional<Bytes> handle_payload(const Bytes& payload);

  static Value reply_to_result(const ReplyMessage& rep);

  OrbConfig config_;
  std::string name_;
  std::string inproc_endpoint_;
  std::string primary_endpoint_;
  std::shared_ptr<InterfaceRepository> interfaces_;

  mutable std::mutex servants_mu_;
  std::map<std::string, ServantPtr> servants_;
  std::atomic<uint64_t> next_object_id_{1};
  std::atomic<uint64_t> next_request_id_{1};
  std::shared_ptr<OrbStatsCounters> stats_;
  std::shared_ptr<obs::Tracer> tracer_;
  std::atomic<bool> shut_down_{false};

  std::unique_ptr<AdmissionController> admission_;
  RetryBudget retry_budget_;
  obs::Gauge* admission_in_flight_gauge_ = nullptr;
  obs::Gauge* admission_queued_gauge_ = nullptr;
  obs::Histogram* admission_wait_ns_ = nullptr;

  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<TcpConnectionPool> pool_;
};

using OrbPtr = std::shared_ptr<Orb>;

/// Typed convenience wrapper around (orb, ref): obj.call("op", args...).
class ObjectHandle {
 public:
  ObjectHandle() = default;
  ObjectHandle(OrbPtr orb, ObjectRef ref) : orb_(std::move(orb)), ref_(std::move(ref)) {}

  [[nodiscard]] bool valid() const { return orb_ != nullptr && !ref_.empty(); }
  [[nodiscard]] const ObjectRef& ref() const { return ref_; }
  [[nodiscard]] const OrbPtr& orb() const { return orb_; }

  Value call(const std::string& operation, const ValueList& args = {}) const {
    require();
    return orb_->invoke(ref_, operation, args);
  }
  bool call_oneway(const std::string& operation, const ValueList& args = {}) const {
    require();
    return orb_->invoke_oneway(ref_, operation, args);
  }
  [[nodiscard]] bool ping() const { return valid() && orb_->ping(ref_); }

 private:
  void require() const {
    if (!valid()) throw OrbError("ObjectHandle: empty handle");
  }
  OrbPtr orb_;
  ObjectRef ref_;
};

}  // namespace adapt::orb
