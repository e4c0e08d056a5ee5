#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "orb/wire.h"
#include "sim/image_store.h"
#include "trading/constraint.h"
#include "workloads.h"

namespace perfbench {

using adapt::Value;
using adapt::ValueList;

const char* const kE1Constraint = "LoadAvg < 50 and LoadAvgIncreasing == 'no'";
const char* const kE1Preference = "min LoadAvg";
const char* const kEvent = "LoadIncrease";
const char* const kFig7Predicate = R"(function(observer, value, monitor)
  local incr
  incr=monitor:getAspectValue("increasing")
  return value[1] > 50 and incr == "yes"
end)";

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  correct = correct && other.correct;
}

double Phase::ops_per_s(bool at_reference) const {
  double wall = 0;
  for (const Window& w : windows) wall += w.wall_s / (at_reference ? w.slowdown : 1.0);
  return wall > 0 ? static_cast<double>(completed()) / wall : 0.0;
}

double Phase::cpu_us_per_op(bool at_reference) const {
  double cpu = 0;
  for (const Window& w : windows) cpu += w.cpu_us / (at_reference ? w.slowdown : 1.0);
  return completed() > 0 ? cpu / static_cast<double>(completed()) : 0.0;
}

double Phase::latency_us(OpClass cls, double p, bool at_reference) const {
  std::vector<double> pooled = at_reference ? at_reference_us[cls] : tally.us[cls];
  return percentile(pooled, p).value_or(0.0);
}

double Phase::slowdown() const {
  std::vector<double> slow;
  for (const Window& w : windows) slow.push_back(w.slowdown);
  return slow.empty() ? 1.0 : median(slow);
}

uint64_t PhaseBuilder::completed() const {
  uint64_t n = 0;
  for (const Tally* t : tallies_) n += t->attempted - t->failed;
  return n;
}

void PhaseBuilder::begin() {
  reference_ns_ = reference().run_ns();
  for (Tally* t : tallies_) {
    for (auto& samples : t->us) samples.clear();
  }
  start_completed_ = completed();
  start_cpu_ = process_cpu_us();
  start_ns_ = now_ns();
}

void PhaseBuilder::cut() {
  Window w;
  w.wall_s = static_cast<double>(now_ns() - start_ns_) / 1e9;
  w.cpu_us = process_cpu_us() - start_cpu_;
  w.ops = completed() - start_completed_;
  w.reference_ns = (reference_ns_ + reference().run_ns()) / 2.0;
  w.slowdown = slowdown(w.reference_ns);
  for (size_t cls = 0; cls < kClasses; ++cls) {
    std::vector<double>& pool = phase_.tally.us[cls];
    std::vector<double>& scaled = phase_.at_reference_us[cls];
    for (Tally* t : tallies_) {
      for (const double us : t->us[cls]) {
        const uint64_t seen = phase_.samples[cls]++;
        phase_.sum_us[cls] += us;
        size_t slot = pool.size();
        if (slot < Phase::kPoolCap) {
          pool.push_back(0);
          scaled.push_back(0);
        } else {
          slot = std::uniform_int_distribution<uint64_t>(0, seen)(reservoir_rng_);
          if (slot >= Phase::kPoolCap) continue;
        }
        pool[slot] = us;
        scaled[slot] = us / w.slowdown;
      }
      t->us[cls].clear();
    }
  }
  phase_.wall_s += w.wall_s;
  phase_.windows.push_back(w);
}

Phase PhaseBuilder::finish() {
  for (const Tally* t : tallies_) phase_.tally.merge(*t);
  return std::move(phase_);
}

Phase run_clients(size_t clients, double seconds, double window_s, const ClientOp& op,
                  const SoloOps& solo) {
  const auto windows = static_cast<uint64_t>(std::max(1.0, std::round(seconds / window_s)));
  const auto window_ns = static_cast<uint64_t>(window_s * 1e9);
  std::vector<Tally> tallies(clients);
  std::mutex mu;
  std::condition_variable cv;
  uint64_t round = 0;      // the window clients may run; guarded by mu
  uint64_t round_end = 0;  // when it ends (ns); guarded by mu
  size_t parked = 0;       // clients done with the round; guarded by mu
  bool stop = false;       // guarded by mu
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      uint64_t seen = 0;
      uint64_t n = 0;
      bool dead = false;
      for (;;) {
        uint64_t end = 0;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return stop || round > seen; });
          if (stop) return;
          seen = round;
          end = round_end;
        }
        try {
          while (!dead && now_ns() < end) {
            const uint64_t id = next_op_id();
            ScopedSpan span(tracer(), "op", id);
            op(c, tally, n++, id);
          }
        } catch (const std::exception& e) {
          std::cerr << "perfbench: client " << c << " stopped: " << e.what() << "\n";
          ++tally.attempted;
          tally.fail(/*wrong=*/true);
          dead = true;
        }
        {
          std::scoped_lock lock(mu);
          ++parked;
        }
        cv.notify_all();
      }
    });
  }
  // Clients are parked whenever this runs, so they stop at once.
  auto stop_clients = [&] {
    {
      std::scoped_lock lock(mu);
      stop = true;
    }
    cv.notify_all();
    for (auto& t : threads) t.join();
  };
  Tally solo_tally;
  std::vector<Tally*> views = {&solo_tally};
  for (Tally& t : tallies) views.push_back(&t);
  PhaseBuilder builder(views);
  try {
    for (uint64_t w = 0; w < windows; ++w) {
      builder.begin();
      try {
        solo(solo_tally, w);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: solo op failed: " << e.what() << "\n";
        ++solo_tally.attempted;
        solo_tally.fail(/*wrong=*/true);
      }
      {
        std::scoped_lock lock(mu);
        parked = 0;
        round_end = now_ns() + window_ns;
        ++round;
      }
      cv.notify_all();
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return parked == clients; });
      }
      builder.cut();
    }
  } catch (...) {
    stop_clients();
    throw;
  }
  stop_clients();
  return builder.finish();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

uint64_t next_op_id() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const ImageSet> ImageSet::make() {
  auto set = std::make_shared<ImageSet>();
  for (uint32_t i = 0; i < kImages; ++i) {
    set->images.push_back(adapt::sim::make_image(i, kImageSide, kImageSide));
    set->checksums.push_back(adapt::sim::image_checksum(set->images.back()));
  }
  return set;
}

Server deploy_server(adapt::core::Infrastructure& infra, const std::string& host_name,
                     const std::string& service_type, double work_seconds,
                     std::shared_ptr<const ImageSet> images) {
  auto host = infra.make_host(host_name);
  auto servant = adapt::orb::FunctionServant::make("BenchServer");
  servant->on("echo", [](const ValueList& args) {
    ScopedSpan span(tracer(), "orb.servant", 0);
    return args.at(0);
  });
  servant->on("work", [host, work_seconds](const ValueList&) {
    ScopedSpan span(tracer(), "orb.servant", 0);
    host->record_work(work_seconds);
    return Value(host->name());
  });
  servant->on("fetch", [host, work_seconds, images](const ValueList& args) {
    ScopedSpan span(tracer(), "orb.servant", 0);
    host->record_work(work_seconds);
    return Value(images->images.at(static_cast<size_t>(args.at(0).as_int())));
  });
  Server server;
  server.host = host_name;
  server.provider = infra.host_orb(host_name)->register_servant(servant);
  auto agent = infra.make_agent(host_name);
  server.monitor = agent->create_load_monitor(host);
  server.offer_id = agent->export_with_load(service_type, server.provider, server.monitor,
                                            {{"Epoch", Value(0)}});
  return server;
}

adapt::core::SmartProxyPtr make_e1_proxy(adapt::core::Infrastructure& infra,
                                         const std::string& service_type) {
  adapt::core::SmartProxyConfig cfg;
  cfg.service_type = service_type;
  cfg.constraint = kE1Constraint;
  cfg.preference = kE1Preference;
  auto proxy = infra.make_proxy(cfg);
  proxy->add_interest(kEvent, kFig7Predicate);
  proxy->set_strategy(kEvent, [](adapt::core::SmartProxy& p) { p.select(); });
  return proxy;
}

bool image_ok(const Value& reply, uint32_t index, const ImageSet& images) {
  if (!reply.is_string()) return false;
  try {
    const adapt::sim::ImageInfo info = adapt::sim::parse_image(reply.as_string());
    return info.index == index && info.width == kImageSide && info.height == kImageSide &&
           adapt::sim::image_checksum(reply.as_string()) == images.checksums.at(index);
  } catch (const adapt::Error&) {
    return false;
  }
}

ValueList small_args(OpStream& ops) {
  std::string text(ops.between(8, 48), 'a');
  for (char& c : text) c = static_cast<char>('a' + ops.between(0, 25));
  return {Value(std::move(text))};
}

OrbWindow OrbWindow::of(const std::vector<adapt::orb::OrbPtr>& orbs) {
  OrbWindow w;
  for (const auto& orb : orbs) {
    const adapt::orb::OrbStats s = orb->stats();
    w.bytes += s.bytes_sent + s.bytes_received;
    w.opened += s.connections_opened;
    w.reused += s.connections_reused;
    w.retries += s.retries;
    w.transport_errors += s.transport_errors;
    w.timeouts += s.timeouts;
  }
  return w;
}

OrbWindow OrbWindow::operator-(const OrbWindow& base) const {
  return OrbWindow{bytes - base.bytes,     opened - base.opened,
                   reused - base.reused,   retries - base.retries,
                   transport_errors - base.transport_errors, timeouts - base.timeouts};
}

ObsWindow ObsWindow::now() {
  auto& registry = adapt::obs::metrics();
  return ObsWindow{registry.counter("luma.lint.analyzed").value(),
                   registry.counter("luma.lint.cache_hit").value(),
                   adapt::obs::default_tracer().recorded()};
}

void probe_wire(const std::string& object_id, const std::string& operation,
                const ValueList& args, const Value& result, uint64_t op) {
  adapt::orb::RequestMessage req;
  req.request_id = op;
  req.object_id = object_id;
  req.operation = operation;
  req.args = args;
  adapt::orb::ReplyMessage rep;
  rep.request_id = op;
  rep.result = result;
  adapt::Bytes req_bytes;
  adapt::Bytes rep_bytes;
  {
    ScopedSpan span(tracer(), "orb.wire_encode", op);
    req_bytes = adapt::orb::encode_request(req);
    rep_bytes = adapt::orb::encode_reply(rep);
  }
  bool same = false;
  {
    ScopedSpan span(tracer(), "orb.wire_decode", op);
    const adapt::orb::RequestMessage req2 = adapt::orb::decode_request(req_bytes);
    const adapt::orb::ReplyMessage rep2 = adapt::orb::decode_reply(rep_bytes);
    same = req2.args.size() == args.size() && rep2.result == result;
  }
  if (!same) throw std::runtime_error("wire round trip changed the message");
}

PredicateProbe::PredicateProbe()
    : engine_(std::make_shared<adapt::script::ScriptEngine>()),
      monitor_(std::make_shared<adapt::monitor::BasicMonitor>("LoadAvg", engine_)) {
  monitor_->defineAspect("increasing",
                         "function(self, value, monitor) return 'yes' end");
  monitor_->setvalue(
      Value(adapt::Table::make_array({Value(60.0), Value(40.0), Value(20.0)})));
  wrapper_ = monitor_->script_wrapper();
  predicate_ = engine_->compile_function(kFig7Predicate, "fig7");
}

void PredicateProbe::run(uint64_t op) {
  {
    ScopedSpan span(tracer(), "script.compile", op);
    predicate_ = engine_->compile_function(kFig7Predicate, "fig7");
  }
  bool fired = false;
  {
    ScopedSpan span(tracer(), "script.predicate_call", op);
    fired = engine_->call1(predicate_, {Value(), monitor_->getvalue(), wrapper_}).truthy();
  }
  if (!fired) throw std::runtime_error("Fig. 7 predicate did not fire on a loaded monitor");
}

std::optional<Value> proxy_op(adapt::core::SmartProxy& proxy, const std::string& operation,
                              const ValueList& args, OpClass cls, bool traced, Tally& tally,
                              uint64_t op) {
  ++tally.attempted;
  const uint64_t handled = proxy.events_handled();
  const uint64_t start = now_ns();
  try {
    Value reply;
    if (traced && proxy.pending_events() > 0) {
      {
        ScopedSpan span(tracer(), "core.handle_events", op);
        proxy.handle_pending_events();
      }
      ScopedSpan span(tracer(), "core.forward", op);
      reply = proxy.invoke(operation, args);
    } else {
      ScopedSpan span(tracer(), cls == kPrimary ? "core.proxy_invoke" : "core.proxy_other", op);
      reply = proxy.invoke(operation, args);
    }
    const double us = static_cast<double>(now_ns() - start) / 1000.0;
    tally.us[proxy.events_handled() != handled ? kAdapt : cls].push_back(us);
    return reply;
  } catch (const adapt::Error&) {
    tally.fail();
    return std::nullopt;
  }
}

void modify_op(adapt::trading::TraderClient& client, adapt::trading::Trader& trader,
               const std::string& offer_id, const std::string& property, double value,
               bool traced, Tally& tally, uint64_t op) {
  ++tally.attempted;
  const adapt::trading::PropertyMap change = {{property, Value(value)}};
  try {
    const uint64_t start = now_ns();
    {
      ScopedSpan span(tracer(), "trading.modify_remote", op);
      client.modify(offer_id, change);
    }
    tally.us[kWrite].push_back(static_cast<double>(now_ns() - start) / 1000.0);
    const auto props = trader.describe(offer_id).properties;
    const auto it = props.find(property);
    if (it == props.end() || it->second.is_dynamic() || it->second.static_value() != Value(value)) {
      tally.fail(/*wrong=*/true);
      return;
    }
    if (traced) {
      ScopedSpan span(tracer(), "trading.write_local", op);
      trader.modify(offer_id, change);
    }
  } catch (const adapt::Error&) {
    tally.fail();
  }
}

void echo_op(ProxyClient& c, OpStream& ops, bool traced, Tally& tally, uint64_t op, uint64_t n,
             uint64_t probe_every) {
  const ValueList args = small_args(ops);
  const auto reply = proxy_op(*c.proxy, "echo", args, kPrimary, traced, tally, op);
  if (!reply) return;
  if (*reply != args[0]) {
    tally.fail(/*wrong=*/true);
    return;
  }
  if (!traced || n % probe_every != 0) return;
  const adapt::ObjectRef target = c.proxy->current();
  Value direct;
  {
    ScopedSpan span(tracer(), "orb.direct_invoke", op);
    direct = c.proxy->orb()->invoke(target, "echo", args);
  }
  if (direct != args[0]) tally.fail(/*wrong=*/true);
  probe_wire(target.object_id, "echo", args, *reply, op);
}

void fetch_op(ProxyClient& c, OpStream& ops, const ImageSet& images, bool traced, Tally& tally,
              uint64_t op, uint64_t n, uint64_t probe_every) {
  const auto index = static_cast<uint32_t>(ops.between(0, kImages - 1));
  const ValueList args = {Value(static_cast<int>(index))};
  const auto reply = proxy_op(*c.proxy, "fetch", args, kBulk, traced, tally, op);
  if (!reply) return;
  if (!image_ok(*reply, index, images)) {
    tally.fail(/*wrong=*/true);
    return;
  }
  if (traced && n % probe_every == 0) {
    probe_wire(c.proxy->current().object_id, "fetch", args, *reply, op);
  }
}

void adapt_op(ProxyClient& c, OpStream& ops, adapt::trading::Trader& trader, QueryProbe& probe,
              bool traced, Tally& tally, uint64_t op) {
  // Explicit strategy activation (paper SIV-A): the next invoke runs the
  // select() strategy — trader query with evalDP, monitor detach/attach.
  c.proxy->enqueue_event(kEvent);
  const ValueList args = small_args(ops);
  const auto reply = proxy_op(*c.proxy, "echo", args, kAdapt, traced, tally, op);
  if (reply && *reply != args[0]) tally.fail(/*wrong=*/true);
  if (traced) {
    probe.run(trader, *c.trader, c.proxy->config().service_type, op);
    if (!c.predicate) c.predicate = std::make_unique<PredicateProbe>();
    c.predicate->run(op);
  }
}

void QueryProbe::run(adapt::trading::Trader& trader, adapt::trading::TraderClient& remote,
                     const std::string& service_type, uint64_t op) {
  {
    ScopedSpan span(tracer(), "trading.parse", op);
    const auto constraint = adapt::trading::Constraint::parse(kE1Constraint);
    const auto preference = adapt::trading::Preference::parse(kE1Preference);
    if (constraint.match_all() || preference.kind() != adapt::trading::Preference::Kind::Min) {
      throw std::runtime_error("E1 strings parsed to the wrong shape");
    }
  }
  {
    std::scoped_lock lock(mu);
    const uint64_t before = trader.dynamic_evals();
    {
      ScopedSpan span(tracer(), "trading.query_local", op);
      results += trader.query(service_type, kE1Constraint, kE1Preference).size();
    }
    dynamic_evals += trader.dynamic_evals() - before;
    ++queries;
  }
  ScopedSpan span(tracer(), "trading.query_remote", op);
  (void)remote.query(service_type, kE1Constraint, kE1Preference);
}

namespace {

double p_of(const std::string& span, double p) {
  std::vector<double> d = tracer().durations_us(span);
  return percentile(d, p).value_or(0.0);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void common_layers(const Phase& traced, const LayerInputs& in, Result& out) {
  const auto ops = static_cast<double>(traced.completed());
  const double direct = p_of("orb.direct_invoke", 50);
  const double proxied = p_of("core.proxy_invoke", 50);
  out.set("orb.direct_invoke_p50_us", direct, "us");
  out.set("orb.servant_p50_us", p_of("orb.servant", 50), "us");
  out.set("orb.wire_encode_ns", p_of("orb.wire_encode", 50) * 1000.0, "ns");
  out.set("orb.wire_decode_ns", p_of("orb.wire_decode", 50) * 1000.0, "ns");
  out.set("orb.bytes_per_op", ratio(static_cast<double>(in.orb.bytes), ops), "B");
  out.set("orb.conn_reuse_ratio",
          ratio(static_cast<double>(in.orb.reused),
                static_cast<double>(in.orb.opened + in.orb.reused)),
          "ratio");
  out.set("orb.retries", static_cast<double>(in.orb.retries), "count");
  out.set("orb.transport_errors", static_cast<double>(in.orb.transport_errors), "count");
  out.set("orb.timeouts", static_cast<double>(in.orb.timeouts), "count");

  out.set("core.proxy_overhead_us", direct > 0 && proxied > 0 ? proxied - direct : 0.0, "us");
  out.set("core.handle_events_p50_us", p_of("core.handle_events", 50), "us");
  out.set("core.handle_events_p90_us", p_of("core.handle_events", 90), "us");
  out.set("core.forward_p50_us", p_of("core.forward", 50), "us");
  out.set("core.events_handled", static_cast<double>(in.events_handled), "count");
  out.set("core.rebinds", static_cast<double>(in.rebinds), "count");
  out.set("core.rebind_ratio",
          ratio(static_cast<double>(in.rebinds), static_cast<double>(in.events_handled)),
          "ratio");
  out.set("core.adapt_wall_share", ratio(traced.sum_us[kAdapt], traced.wall_s * 1e6), "ratio");

  std::vector<double> local = tracer().durations_us("trading.query_local");
  const size_t local_n = local.size();
  out.set("trading.query_local_p50_us", percentile(local, 50).value_or(0.0), "us");
  out.set("trading.query_local_p99_us",
          percentile_reportable(local_n, 99) ? percentile(local, 99).value_or(0.0) : 0.0,
          "us");
  out.set("trading.query_remote_p50_us", p_of("trading.query_remote", 50), "us");
  out.set("trading.write_local_p50_us", p_of("trading.write_local", 50), "us");
  out.set("trading.parse_ns", p_of("trading.parse", 50) * 1000.0, "ns");
  out.set("trading.results_per_query",
          ratio(static_cast<double>(in.results), static_cast<double>(in.queries)), "count");
  out.set("trading.dynamic_evals_per_query",
          ratio(static_cast<double>(in.dynamic_evals), static_cast<double>(in.dyn_queries)),
          "count");

  out.set("monitor.step_p50_us", p_of("monitor.step", 50), "us");
  out.set("monitor.updates", static_cast<double>(in.monitor_updates), "count");
  out.set("monitor.notifications", static_cast<double>(in.notifications), "count");
  out.set("monitor.notify_per_update",
          ratio(static_cast<double>(in.notifications), static_cast<double>(in.monitor_updates)),
          "ratio");

  out.set("script.predicate_call_ns", p_of("script.predicate_call", 50) * 1000.0, "ns");
  out.set("script.compile_ns", p_of("script.compile", 50) * 1000.0, "ns");
  out.set("script.lint_cache_hit_ratio",
          ratio(static_cast<double>(in.obs_after.lint_cache_hit - in.obs_before.lint_cache_hit),
                static_cast<double>(in.obs_after.lint_analyzed - in.obs_before.lint_analyzed)),
          "ratio");
  out.set("obs.spans_per_op",
          ratio(static_cast<double>(in.obs_after.spans - in.obs_before.spans), ops), "count");
}

}  // namespace perfbench
