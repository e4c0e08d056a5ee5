#include "core/smart_proxy.h"

#include <atomic>

#include "base/logging.h"
#include "lb/script_bindings.h"
#include "obs/lint_gate.h"
#include "obs/metrics.h"
#include "obs/script_bindings.h"
#include "obs/trace.h"
#include "orb/script_bindings.h"
#include "script/analysis/policy.h"

namespace adapt::core {

namespace {
std::atomic<uint64_t> g_proxy_counter{1};

/// Pre-execution gate for strategy code shipped to this proxy: refuses the
/// script — before compiling or running any of it — when static analysis
/// under the strategy capability policy reports an error. The refusal is
/// recorded via obs (`luma.lint.rejected` + `luma.lint.reject` span).
void reject_on_lint_error(const script::ScriptEngine::AnalysisVerdict& verdict,
                          const std::string& chunk_name) {
  obs::record_lint_analysis(verdict.cache_hit);
  if (const auto* err = script::analysis::first_error(verdict.diags)) {
    const std::string detail = obs::record_lint_rejection(chunk_name, *err);
    throw Error(chunk_name + ": script rejected by static analysis: " + detail);
  }
}

/// The first offer whose provider is not `avoid` (the component that just
/// failed), else the front: with nothing else on offer, the failed one may
/// have recovered. Null when there are no offers.
const trading::OfferInfo* choose_offer(const std::vector<trading::OfferInfo>& offers,
                                       const ObjectRef& avoid) {
  for (const auto& offer : offers) {
    if (!(offer.provider == avoid)) return &offer;
  }
  return offers.empty() ? nullptr : &offers.front();
}
}  // namespace

SmartProxyPtr SmartProxy::create(orb::OrbPtr orb, ObjectRef lookup, SmartProxyConfig config,
                                 std::shared_ptr<script::ScriptEngine> engine) {
  auto proxy = std::shared_ptr<SmartProxy>(
      new SmartProxy(std::move(orb), std::move(lookup), std::move(config), std::move(engine)));
  proxy->init();
  return proxy;
}

SmartProxy::SmartProxy(orb::OrbPtr orb, ObjectRef lookup, SmartProxyConfig config,
                       std::shared_ptr<script::ScriptEngine> engine)
    : orb_(std::move(orb)),
      lookup_(std::move(lookup)),
      config_(std::move(config)),
      engine_(engine ? std::move(engine) : std::make_shared<script::ScriptEngine>()) {
  if (!orb_) throw Error("SmartProxy requires an ORB");
  if (lookup_.empty()) throw Error("SmartProxy requires a trader Lookup reference");
  if (config_.service_type.empty()) throw Error("SmartProxy requires a service type");
}

SmartProxy::~SmartProxy() {
  try {
    detach_registrations();
  } catch (const Error&) {
    // best effort: the monitor may already be gone
  }
  try {
    unsubscribe_channel();
  } catch (const Error&) {
    // best effort: the channel may already be gone
  }
  if (!observer_ref_.empty()) orb_->unregister_servant(observer_ref_.object_id);
}

std::string SmartProxy::subscribe_channel(const ObjectRef& channel,
                                          const std::vector<std::string>& events) {
  if (channel.empty()) throw Error("subscribe_channel: empty channel reference");
  unsubscribe_channel();
  auto opts = Table::make();
  if (!events.empty()) {
    auto list = Table::make();
    for (const auto& evid : events) list->append(Value(evid));
    opts->set(Value("events"), Value(std::move(list)));
  }
  const Value id =
      orb_->invoke(channel, "subscribe", {Value(observer_ref_), Value(std::move(opts))});
  std::scoped_lock lock(mu_);
  channel_ref_ = channel;
  channel_subscription_ = id.as_string();
  return channel_subscription_;
}

void SmartProxy::unsubscribe_channel() {
  ObjectRef channel;
  std::string subscription;
  {
    std::scoped_lock lock(mu_);
    channel = channel_ref_;
    subscription.swap(channel_subscription_);
    channel_ref_ = {};
  }
  if (channel.empty() || subscription.empty()) return;
  // wait=true: after this returns, no channel delivery to this proxy's
  // observer is in flight (so the destructor can safely unregister it).
  orb_->invoke(channel, "unsubscribe", {Value(subscription), Value(true)});
}

bool SmartProxy::channel_subscribed() const {
  std::scoped_lock lock(mu_);
  return !channel_subscription_.empty();
}

void SmartProxy::init() {
  // The observer servant through which monitors notify this proxy (the
  // built-in createEventObserver of SIV-A).
  std::weak_ptr<SmartProxy> weak = weak_from_this();
  const bool postpone = config_.postpone_events;
  observer_ = std::make_shared<monitor::CallbackObserver>([weak, postpone](const std::string& evid) {
    auto self = weak.lock();
    if (!self) return;
    self->enqueue_event(evid);
    if (!postpone) self->handle_pending_events();
  });
  observer_ref_ = orb_->register_servant(
      observer_, "smartproxy-observer-" + std::to_string(g_proxy_counter++));

  // Strategy code can introspect transport health (orb.stats() etc.) when
  // deciding how to adapt; the binding tracks this proxy's client ORB.
  orb::install_orb_bindings(*engine_, orb_);
  // Strategies are first-class observable: trace.span / metrics.counter etc.
  // record into the same tracer/registry as the ORB's automatic spans.
  obs::install_obs_bindings(*engine_, &orb_->tracer());
  // Replica-group balancing knobs (lb.set_policy / lb.score / lb.stats ...);
  // the set itself is created on first use.
  lb::install_lb_bindings(*engine_, [weak](bool ensure) -> lb::ReplicaSetPtr {
    auto self = weak.lock();
    return self ? self->replica_set(ensure) : nullptr;
  });

  // The host-injected `smartproxy` global strategy scripts see; declared so
  // the analyzer knows it (and its "proxy" capability) before it is set.
  engine_->natives().declare_global("smartproxy");
  engine_->natives().tag("smartproxy", "proxy");

  // Script-facing self table.
  auto self = Table::make();
  self->set(Value("_strategies"), Value(Table::make()));
  self->set(Value("_observer"), Value(observer_ref_));
  self->set(Value("_service_type"), Value(config_.service_type));
  self->set(Value("_select"), Value(NativeFunction::make("smartproxy._select",
      [weak](const ValueList& a) -> ValueList {
        auto proxy = weak.lock();
        if (!proxy) throw Error("_select: proxy is gone");
        const std::string query = a.size() > 1 && a[1].is_string() ? a[1].as_string() : "";
        return {Value(proxy->select(query))};
      })));
  self->set(Value("select"), Value(NativeFunction::make("smartproxy.select",
      [weak](const ValueList&) -> ValueList {
        auto proxy = weak.lock();
        if (!proxy) throw Error("select: proxy is gone");
        return {Value(proxy->select())};
      })));
  self->set(Value("invoke"), Value(NativeFunction::make("smartproxy.invoke",
      [weak](const ValueList& a) -> ValueList {
        auto proxy = weak.lock();
        if (!proxy) throw Error("invoke: proxy is gone");
        ValueList args(a.begin() + 2, a.end());
        return {proxy->invoke(a.at(1).as_string(), args)};
      })));
  self->set(Value("current"), Value(NativeFunction::make("smartproxy.current",
      [weak](const ValueList&) -> ValueList {
        auto proxy = weak.lock();
        if (!proxy) throw Error("current: proxy is gone");
        const ObjectRef ref = proxy->current();
        return {ref.empty() ? Value() : Value(ref)};
      })));
  self_ = Value(std::move(self));

  if (config_.lb_policy != "sticky") set_lb_policy(config_.lb_policy);
}

// ---- strategies -----------------------------------------------------------

void SmartProxy::add_interest(const std::string& event_id, const std::string& predicate_code) {
  {
    std::scoped_lock lock(mu_);
    interests_.push_back(Interest{event_id, predicate_code, ""});
  }
  // When already bound, attach the new interest immediately.
  attach_registrations();
}

void SmartProxy::set_strategy(const std::string& event_id, NativeStrategy strategy) {
  std::scoped_lock lock(mu_);
  native_strategies_[event_id] = std::move(strategy);
}

void SmartProxy::set_strategy_code(const std::string& event_id, const std::string& code) {
  const std::string chunk_name = "strategy:" + event_id;
  reject_on_lint_error(engine_->analyze_function_cached(
                           code, chunk_name, &script::analysis::strategy_policy()),
                       chunk_name);
  const Value fn = engine_->compile_function(code, chunk_name);
  std::scoped_lock engine_lock(engine_->mutex());
  self_.as_table()->get(Value("_strategies")).as_table()->set(Value(event_id), fn);
}

void SmartProxy::eval_strategy_script(const std::string& chunk) {
  std::scoped_lock engine_lock(engine_->mutex());
  engine_->set_global("smartproxy", self_);
  reject_on_lint_error(
      engine_->analyze_cached(chunk, "strategy-script",
                              &script::analysis::strategy_policy()),
      "strategy-script");
  engine_->eval(chunk, "strategy-script");
}

// ---- selection -----------------------------------------------------------

bool SmartProxy::select() {
  try {
    return !bind_first(query_offers_all(), {}).empty();
  } catch (const TraderUnavailable&) {
    return false;  // the paper's select() contract: false, never a throw
  }
}

bool SmartProxy::select(const std::string& constraint) {
  try {
    return !bind_first(query_offers(constraint, config_.preference), {}).empty();
  } catch (const TraderUnavailable&) {
    return false;
  }
}

std::vector<trading::OfferInfo> SmartProxy::query_offers(const std::string& constraint,
                                                         const std::string& preference) {
  std::vector<trading::OfferInfo> offers;
  try {
    // Rebind path: trader queries are idempotent, so give the transport an
    // explicit deadline + retry budget instead of failing on the first hiccup.
    orb::InvokeOptions options;
    options.deadline = config_.query_deadline;
    options.idempotent = true;
    options.retry = config_.query_retry;
    const Value reply = orb_->invoke(
        lookup_, "query",
        {Value(config_.service_type), Value(constraint), Value(preference), Value(),
         trading::Trader::policies_to_value(config_.policies)},
        options);
    if (reply.is_table()) {
      const Table& t = *reply.as_table();
      for (int64_t i = 1; i <= t.length(); ++i) {
        offers.push_back(trading::Trader::offer_info_from_value(t.geti(i)));
      }
    }
  } catch (const orb::TransportError& e) {
    // An empty vector here would be indistinguishable from a legitimate
    // no-match; surface the outage as its own error (and counter) instead.
    obs::metrics().counter("proxy.trader.error").add();
    log_warn("smartproxy[", config_.service_type, "]: trader unreachable: ", e.what());
    throw TraderUnavailable("trader query failed for '" + config_.service_type +
                            "': " + e.what());
  } catch (const orb::ObjectNotFound& e) {
    obs::metrics().counter("proxy.trader.error").add();
    log_warn("smartproxy[", config_.service_type, "]: trader lookup gone: ", e.what());
    throw TraderUnavailable("trader query failed for '" + config_.service_type +
                            "': " + e.what());
  } catch (const Error& e) {
    // The trader answered with an application error (bad constraint, unknown
    // type): it is alive, so for selection purposes this is a no-match.
    obs::metrics().counter("proxy.trader.error").add();
    log_warn("smartproxy[", config_.service_type, "]: trader query failed: ", e.what());
  }
  return offers;
}

std::vector<trading::OfferInfo> SmartProxy::query_offers_all() {
  auto offers = query_offers(config_.constraint, config_.preference);
  if (offers.empty() && config_.fallback_to_sorted && !config_.constraint.empty()) {
    // Paper SV: "If no offer suits the imposed restriction, the smart proxy
    // issues an alternative query, where it specifies only offer sorting".
    log_debug("smartproxy[", config_.service_type, "]: falling back to sorted query");
    offers = query_offers("", config_.preference);
  }
  return offers;
}

ObjectRef SmartProxy::bind_first(const std::vector<trading::OfferInfo>& offers,
                                 const ObjectRef& avoid) {
  const trading::OfferInfo* chosen = choose_offer(offers, avoid);
  if (chosen == nullptr) return {};
  bind(*chosen);
  return chosen->provider;
}

void SmartProxy::bind(const trading::OfferInfo& offer) {
  // A rebind triggered inside an invocation (event strategy, failover)
  // appears as a child span of that invocation's proxy span.
  obs::SpanOptions span_options;
  span_options.tracer = &orb_->tracer();
  obs::ScopedSpan span("proxy.rebind:" + config_.service_type, span_options);
  if (span.active()) span.annotate("provider", offer.provider.str());

  detach_registrations();
  bool changed = false;
  {
    std::scoped_lock lock(mu_);
    changed = !(offer.provider == current_);
    offer_ = offer;
    current_ = offer.provider;
    current_monitor_ref_ = ObjectRef{};
    if (!config_.monitor_property.empty()) {
      const auto it = offer.properties.find(config_.monitor_property);
      if (it != offer.properties.end() && it->second.is_object()) {
        current_monitor_ref_ = it->second.as_object();
      }
    }
    if (changed) {
      history_.push_back(offer.provider.str());
      ++rebinds_;
    }
  }
  attach_registrations();

  // Refresh the monitor wrapper visible to strategy code (self._loadavgmon).
  if (!config_.monitor_field.empty()) {
    ObjectRef mon_ref;
    {
      std::scoped_lock lock(mu_);
      mon_ref = current_monitor_ref_;
    }
    std::scoped_lock engine_lock(engine_->mutex());
    self_.as_table()->set(Value(config_.monitor_field),
                          mon_ref.empty()
                              ? Value()
                              : monitor::make_remote_monitor_wrapper(orb_, mon_ref));
  }
  if (changed) {
    obs::metrics().counter("proxy.rebinds").add();
    log_info("smartproxy[", config_.service_type, "]: bound to ", offer.provider.str());
  }
}

void SmartProxy::detach_registrations() {
  ObjectRef mon_ref;
  std::vector<std::pair<size_t, std::string>> to_detach;
  {
    std::scoped_lock lock(mu_);
    mon_ref = current_monitor_ref_;
    for (size_t i = 0; i < interests_.size(); ++i) {
      if (!interests_[i].registration_id.empty()) {
        to_detach.emplace_back(i, interests_[i].registration_id);
        interests_[i].registration_id.clear();
      }
    }
  }
  if (mon_ref.empty()) return;
  for (const auto& [index, registration] : to_detach) {
    try {
      orb_->invoke(mon_ref, "detachEventObserver", {Value(registration)});
    } catch (const Error& e) {
      log_debug("smartproxy: detach from old monitor failed: ", e.what());
    }
  }
}

void SmartProxy::attach_registrations() {
  ObjectRef mon_ref;
  std::vector<std::pair<size_t, Interest>> to_attach;
  {
    std::scoped_lock lock(mu_);
    mon_ref = current_monitor_ref_;
    if (mon_ref.empty()) return;
    for (size_t i = 0; i < interests_.size(); ++i) {
      if (interests_[i].registration_id.empty()) to_attach.emplace_back(i, interests_[i]);
    }
  }
  for (const auto& [index, interest] : to_attach) {
    try {
      const Value id = orb_->invoke(
          mon_ref, "attachEventObserver",
          {Value(observer_ref_), Value(interest.event_id), Value(interest.predicate_code)});
      std::scoped_lock lock(mu_);
      if (index < interests_.size()) interests_[index].registration_id = id.as_string();
    } catch (const Error& e) {
      log_warn("smartproxy[", config_.service_type, "]: attach '", interest.event_id,
               "' failed: ", e.what());
    }
  }
}

bool SmartProxy::bound() const {
  std::scoped_lock lock(mu_);
  return !current_.empty();
}

ObjectRef SmartProxy::current() const {
  std::scoped_lock lock(mu_);
  return current_;
}

std::optional<trading::OfferInfo> SmartProxy::current_offer() const {
  std::scoped_lock lock(mu_);
  return offer_;
}

monitor::MonitorClient SmartProxy::current_monitor() const {
  std::scoped_lock lock(mu_);
  if (current_monitor_ref_.empty()) return {};
  return monitor::MonitorClient(orb_, current_monitor_ref_);
}

std::vector<std::string> SmartProxy::binding_history() const {
  std::scoped_lock lock(mu_);
  return history_;
}

// ---- events -------------------------------------------------------------

void SmartProxy::enqueue_event(const std::string& event_id) {
  std::scoped_lock lock(mu_);
  event_queue_.push_back(event_id);
}

size_t SmartProxy::pending_events() const {
  std::scoped_lock lock(mu_);
  return event_queue_.size();
}

void SmartProxy::handle_pending_events() {
  {
    std::scoped_lock lock(mu_);
    if (handling_events_) return;  // re-entrant invoke inside a strategy
    handling_events_ = true;
  }
  struct Reset {
    SmartProxy& proxy;
    ~Reset() {
      std::scoped_lock lock(proxy.mu_);
      proxy.handling_events_ = false;
    }
  } reset{*this};

  for (;;) {
    std::string event_id;
    {
      std::scoped_lock lock(mu_);
      if (event_queue_.empty()) break;
      event_id = std::move(event_queue_.front());
      event_queue_.pop_front();
    }
    handle_event(event_id);
  }
}

void SmartProxy::handle_event(const std::string& event_id) {
  // Strategy activations are spans: an adaptation firing inside a request
  // shows up between the proxy span and any rebind/reselect child spans.
  obs::SpanOptions span_options;
  span_options.tracer = &orb_->tracer();
  obs::ScopedSpan span("proxy.event:" + event_id, span_options);
  if (span.active()) span.annotate("service_type", config_.service_type);
  obs::metrics().counter("proxy.events_handled").add();

  // Script strategies (the _strategies table) take precedence, so that
  // run-time updates shipped as code override compiled-in behavior.
  Value strategy;
  {
    std::scoped_lock engine_lock(engine_->mutex());
    strategy = self_.as_table()->get(Value("_strategies")).as_table()->get(Value(event_id));
  }
  if (strategy.is_table()) {
    // Declarative strategy (see header): interpret the table.
    try {
      const Table& spec = *strategy.as_table();
      if (const Value set = spec.get(Value("set")); set.is_table()) {
        std::scoped_lock engine_lock(engine_->mutex());
        for (const auto& [key, val] : *set.as_table()) {
          self_.as_table()->set(key.to_value(), val);
        }
      }
      if (const Value reselect = spec.get(Value("reselect")); reselect.is_string()) {
        const bool found = reselect.as_string().empty() ? select()
                                                        : select(reselect.as_string());
        if (!found) {
          const Value relax = spec.get(Value("on_failure_attach"));
          if (relax.is_table()) {
            const std::string ev = relax.as_table()->get(Value("event")).as_string();
            const std::string code =
                relax.as_table()->get(Value("predicate")).as_string();
            ObjectRef mon_ref;
            {
              std::scoped_lock lock(mu_);
              mon_ref = current_monitor_ref_;
            }
            if (!mon_ref.empty()) {
              orb_->invoke(mon_ref, "attachEventObserver",
                           {Value(observer_ref_), Value(ev), Value(code)});
            }
          }
        }
      }
    } catch (const Error& e) {
      log_warn("smartproxy[", config_.service_type, "]: declarative strategy '", event_id,
               "' failed: ", e.what());
    }
    std::scoped_lock lock(mu_);
    ++events_handled_;
    return;
  }
  if (strategy.is_function()) {
    try {
      engine_->call(strategy, {self_});
    } catch (const Error& e) {
      log_warn("smartproxy[", config_.service_type, "]: strategy '", event_id,
               "' failed: ", e.what());
    }
    std::scoped_lock lock(mu_);
    ++events_handled_;
    return;
  }
  NativeStrategy native;
  {
    std::scoped_lock lock(mu_);
    const auto it = native_strategies_.find(event_id);
    if (it != native_strategies_.end()) native = it->second;
  }
  if (native) {
    try {
      native(*this);
    } catch (const Error& e) {
      log_warn("smartproxy[", config_.service_type, "]: strategy '", event_id,
               "' failed: ", e.what());
    }
    std::scoped_lock lock(mu_);
    ++events_handled_;
    return;
  }
  log_debug("smartproxy[", config_.service_type, "]: no strategy for event '", event_id, "'");
  std::scoped_lock lock(mu_);
  ++events_handled_;
}

// ---- per-operation routing & method alternatives ------------------------

void SmartProxy::route_operation(const std::string& operation, const std::string& constraint,
                                 const std::string& preference) {
  std::scoped_lock lock(mu_);
  routes_[operation] =
      OperationRoute{constraint, preference.empty() ? config_.preference : preference, {}};
}

void SmartProxy::clear_operation_routes() {
  std::scoped_lock lock(mu_);
  routes_.clear();
}

ObjectRef SmartProxy::route_target(const std::string& operation) const {
  std::scoped_lock lock(mu_);
  const auto it = routes_.find(operation);
  return it == routes_.end() ? ObjectRef{} : it->second.target;
}

void SmartProxy::add_method_alternative(const std::string& operation,
                                        const std::string& alternative) {
  std::scoped_lock lock(mu_);
  method_alternatives_[operation] = alternative;
}

ObjectRef SmartProxy::resolve_route(OperationRoute& route, const ObjectRef& failed) {
  if (failed.empty() && !route.target.empty()) return route.target;
  const auto offers = query_offers(route.constraint, route.preference);
  const trading::OfferInfo* chosen = choose_offer(offers, failed);
  route.target = chosen != nullptr ? chosen->provider : ObjectRef{};
  return route.target;
}

// ---- invocation ------------------------------------------------------------

Value SmartProxy::forward_to(const ObjectRef& target, const lb::ReplicaSetPtr& set,
                             const lb::ReplicaPtr& replica, const std::string& operation,
                             const ValueList& args, int depth) {
  try {
    if (replica != nullptr) {
      return set->invoke(orb_, replica, operation, args, orb_->is_idempotent(operation));
    }
    return orb_->invoke(target, operation, args);
  } catch (const orb::BadOperation&) {
    std::string alternative;
    {
      std::scoped_lock lock(mu_);
      const auto it = method_alternatives_.find(operation);
      if (it != method_alternatives_.end()) alternative = it->second;
    }
    if (alternative.empty() || depth >= 8) throw;
    log_debug("smartproxy[", config_.service_type, "]: '", operation,
              "' unavailable, trying alternative '", alternative, "'");
    return forward_to(target, set, replica, alternative, args, depth + 1);
  }
}

Value SmartProxy::invoke(const std::string& operation, const ValueList& args) {
  // Proxy span: parent of the event-strategy work, any rebind, and the
  // forwarded ORB client span(s) — so adaptation shows up inside the trace
  // of the request that triggered it.
  obs::SpanOptions span_options;
  span_options.tracer = &orb_->tracer();
  obs::ScopedSpan span("proxy.invoke:" + operation, span_options);
  if (span.active()) span.annotate("service_type", config_.service_type);
  obs::metrics().counter("proxy.invocations").add();
  try {
    return invoke_traced(operation, args);
  } catch (const Error& e) {
    span.set_error(e.what());
    throw;
  }
}

Value SmartProxy::invoke_traced(const std::string& operation, const ValueList& args) {
  handle_pending_events();

  // One snapshot fixes the selection source for this call: a routed
  // operation resolves its own component (SIV-A), an active balancing policy
  // or custom scorer picks from the replica set, and everything else goes to
  // the bound component, binding on demand.
  std::optional<OperationRoute> route;
  lb::ReplicaSetPtr set;
  ObjectRef target;
  {
    std::scoped_lock lock(mu_);
    ++invocations_;
    if (const auto it = routes_.find(operation); it != routes_.end()) {
      route = it->second;
    } else if (replica_set_ != nullptr && (replica_set_->policy() != lb::Policy::Sticky ||
                                           replica_set_->has_score_fn())) {
      set = replica_set_;
    } else {
      target = current_;
    }
  }

  ObjectRef failed;  // set once the first attempt could not reach its target
  for (;;) {
    lb::ReplicaPtr replica;
    if (route) {
      target = resolve_route(*route, failed);
    } else if (set != nullptr) {
      replica = set->pick();
      target = replica != nullptr ? replica->provider() : ObjectRef{};
    } else if (target.empty() || !failed.empty()) {
      target = bind_first(query_offers_all(), failed);
    }
    if (target.empty()) {
      const std::string message = "no component available for '" + operation +
                                  "' of service type '" + config_.service_type + "'";
      // The replica set keeps serving its stale view through a trader
      // outage, so an empty pick is the only place the outage shows.
      if (set != nullptr && !set->last_refresh_error().empty()) {
        throw TraderUnavailable(message + " (trader unreachable)");
      }
      throw NoComponentAvailable(message);
    }

    try {
      Value result = forward_to(target, set, replica, operation, args);
      if (route) {
        std::scoped_lock lock(mu_);
        const auto it = routes_.find(operation);
        if (it != routes_.end()) it->second.target = target;
      }
      return result;
    } catch (const orb::OrbError& e) {
      // The failover gate: an unreachable or vanished component gets one
      // reselect-and-retry. After the request was fully written the peer may
      // have executed it, so re-running it elsewhere is only safe for an
      // idempotent operation (the transport pool's post-write redial rule).
      const auto* lost = dynamic_cast<const orb::TransportError*>(&e);
      const bool unreachable =
          lost != nullptr || dynamic_cast<const orb::ObjectNotFound*>(&e) != nullptr;
      if (!unreachable || !config_.auto_failover || !failed.empty() ||
          (lost != nullptr && lost->maybe_executed() && !orb_->is_idempotent(operation))) {
        throw;
      }
      log_warn("smartproxy[", config_.service_type, "]: ", target.str(), " failed (",
               e.what(), "), failing over");
    }
    failed = target;
    if (!route && set == nullptr) {
      // Drop the dead binding, so a failover that finds nothing leaves the
      // proxy unbound and the rebind does not call the dead monitor.
      std::scoped_lock lock(mu_);
      if (current_ == failed) {
        current_ = ObjectRef{};
        current_monitor_ref_ = ObjectRef{};
        offer_.reset();
      }
    }
  }
}

// ---- load balancing --------------------------------------------------------

lb::ReplicaSetPtr SmartProxy::replica_set(bool ensure) {
  {
    std::scoped_lock lock(mu_);
    if (replica_set_ != nullptr || !ensure) return replica_set_;
  }
  // Built outside mu_ (the constructor only touches the metrics registry).
  // The query callback throws TraderUnavailable on outage, which is exactly
  // the throw-on-failure contract ReplicaSet::refresh expects.
  std::weak_ptr<SmartProxy> weak = weak_from_this();
  auto set = std::make_shared<lb::ReplicaSet>(
      "proxy." + config_.service_type, config_.lb, [weak]() {
        auto self = weak.lock();
        if (!self) throw lb::LbError("lb refresh: proxy is gone");
        return self->query_offers_all();
      });
  std::scoped_lock lock(mu_);
  if (replica_set_ == nullptr) replica_set_ = std::move(set);
  return replica_set_;
}

void SmartProxy::set_lb_policy(const std::string& policy) {
  const lb::Policy parsed = lb::policy_from_name(policy);
  if (parsed == lb::Policy::Sticky) {
    // Back to single-bind; keep an existing set (and its statistics) around
    // in case a strategy re-enables balancing later.
    std::scoped_lock lock(mu_);
    if (replica_set_ != nullptr) replica_set_->set_policy(parsed);
    return;
  }
  replica_set(/*ensure=*/true)->set_policy(parsed);
}

std::string SmartProxy::lb_policy() const {
  std::scoped_lock lock(mu_);
  return replica_set_ != nullptr ? lb::policy_name(replica_set_->policy()) : "sticky";
}

uint64_t SmartProxy::invocations() const {
  std::scoped_lock lock(mu_);
  return invocations_;
}

uint64_t SmartProxy::rebinds() const {
  std::scoped_lock lock(mu_);
  return rebinds_;
}

uint64_t SmartProxy::events_handled() const {
  std::scoped_lock lock(mu_);
  return events_handled_;
}

Value SmartProxy::script_self() { return self_; }

}  // namespace adapt::core
