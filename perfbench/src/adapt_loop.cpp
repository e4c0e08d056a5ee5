// adapt_loop: the paper's loop in virtual time over TCP. Eight hosts, each
// deployed through ServiceAgent::create_load_monitor + export_with_load, and
// 32 sticky E1 proxies (Fig. 7 interest, select() strategy, 1 s monitor
// period). One loop thread alternates run_for(1 s) with one invoke per
// proxy; every call records kWork simulated CPU-seconds on its host, so the
// proxies' own load keeps herding them between hosts (E1 scenario 2) and the
// loop adapts continuously without saturating every host.
//
// A run covers a fixed virtual span (kStepsPerSecond steps per requested
// second, somewhat under the requested wall time on one CPU), so every run
// does identical work: the herd's adaptation bursts come and go with
// virtual time, and a wall-time cut would change the mix of adapting and
// plain invokes from run to run. Notifications are TCP oneways; after each
// step the loop waits until every notification sent has reached its
// proxy, so the adaptation counts repeat exactly for one seed.
#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

using adapt::Value;

constexpr int kHosts = 8;
constexpr int kProxies = 32;
constexpr double kWork = 9.0;         // simulated CPU-seconds per call
constexpr double kStep = 1.0;         // virtual seconds per loop step
constexpr double kStepsPerSecond = 200;
constexpr uint64_t kWindowSteps = 25;  // steps per window
constexpr uint64_t kFetchEvery = 20;  // each proxy fetches every 20th step (5%)
constexpr uint64_t kProbeEvery = 8;       // invokes per direct-invoke probe
constexpr uint64_t kQueryProbeEvery = 4;  // steps per trader/script probe
constexpr double kDeliveryTimeout = 2.0;  // wall seconds
const char* const kType = "Compute";

class AdaptLoop final : public Workload {
 public:
  explicit AdaptLoop(uint64_t seed) : seed_(seed), images_(ImageSet::make()) {}
  ~AdaptLoop() override { teardown(); }

  void setup(int attempt) override {
    infra_ = std::make_unique<adapt::core::Infrastructure>(adapt::core::InfrastructureOptions{
        .simulated_time = true,
        .tcp = true,
        .monitor_period = kStep,
        .name = "aloop" + std::to_string(attempt)});
    adapt::trading::ServiceTypeDef type;
    type.name = kType;
    infra_->trader().types().add(type);
    hosts_.clear();
    for (int h = 0; h < kHosts; ++h) {
      servers_.push_back(
          deploy_server(*infra_, "n" + std::to_string(h + 1), kType, kWork, images_));
      hosts_.insert(servers_.back().host);
    }
    for (int p = 0; p < kProxies; ++p) {
      proxies_.push_back(make_e1_proxy(*infra_, kType));
      if (proxies_.back()->invoke("echo", {Value("warm-up")}) != Value("warm-up")) {
        throw std::runtime_error("adapt_loop: warm-up echo returned the wrong value");
      }
    }
    trader_client_ = std::make_unique<adapt::trading::TraderClient>(
        infra_->make_orb("loop"), infra_->lookup_ref(), infra_->register_ref());
    trader_client_->modify(servers_.front().offer_id, {{"Epoch", Value(0)}});
  }

  void teardown() override {
    proxies_.clear();
    trader_client_.reset();
    servers_.clear();
    if (infra_) infra_->shutdown();
    infra_.reset();
  }

  Phase run(double seconds, bool traced) override {
    const auto orbs = client_orbs();
    const OrbWindow orb0 = OrbWindow::of(orbs);
    const ObsWindow obs0 = ObsWindow::now();
    const Counters c0 = counters();
    const auto steps = static_cast<uint64_t>(std::max(1.0, std::round(seconds * kStepsPerSecond)));
    Tally tally;
    PhaseBuilder builder({&tally});
    OpStream ops(seed_, 0);
    if (traced && !predicate_) predicate_ = std::make_unique<PredicateProbe>();
    for (uint64_t step = 1; step <= steps; ++step) {
      if ((step - 1) % kWindowSteps == 0) builder.begin();
      {
        ScopedSpan span(tracer(), "monitor.step", next_op_id());
        infra_->run_for(kStep);
      }
      if (!await_delivery()) {
        ++tally.attempted;
        tally.fail();
      }
      for (size_t p = 0; p < proxies_.size(); ++p) {
        const uint64_t op = next_op_id();
        ScopedSpan span(tracer(), "op", op);
        invoke(*proxies_[p], (step + p) % kFetchEvery == 0, ops, traced, tally, op);
      }
      const uint64_t op = next_op_id();
      {
        ScopedSpan span(tracer(), "op", op);
        modify_op(*trader_client_, infra_->trader(), servers_[step % kHosts].offer_id, "Epoch",
                  static_cast<double>(step), traced, tally, op);
      }
      if (traced && step % kQueryProbeEvery == 0) {
        query_probe_.run(infra_->trader(), *trader_client_, kType, op);
        predicate_->run(op);
      }
      if (step % kWindowSteps == 0 || step == steps) builder.cut();
    }
    Phase phase = builder.finish();
    if (traced) {
      layers_ = LayerInputs{};
      layers_.orb = OrbWindow::of(orbs) - orb0;
      layers_.obs_before = obs0;
      layers_.obs_after = ObsWindow::now();
      // A fixed virtual span, so these counts repeat exactly for one seed.
      const Counters c1 = counters() - c0;
      layers_.events_handled = c1.events_handled;
      layers_.rebinds = c1.rebinds;
      layers_.monitor_updates = c1.updates;
      layers_.notifications = c1.notifications;
      layers_.queries = layers_.dyn_queries = query_probe_.queries;
      layers_.results = query_probe_.results;
      layers_.dynamic_evals = query_probe_.dynamic_evals;
    }
    return phase;
  }

  void per_layer(const Phase& traced, Result& out) override {
    common_layers(traced, layers_, out);
  }

 private:
  struct Counters {
    uint64_t events_handled = 0, rebinds = 0, updates = 0, notifications = 0, delivered = 0;
    Counters operator-(const Counters& b) const {
      return {events_handled - b.events_handled, rebinds - b.rebinds, updates - b.updates,
              notifications - b.notifications, delivered - b.delivered};
    }
  };

  Counters counters() const {
    Counters c;
    for (const auto& proxy : proxies_) {
      c.events_handled += proxy->events_handled();
      c.rebinds += proxy->rebinds();
      c.delivered += proxy->events_handled() + proxy->pending_events();
    }
    for (const Server& s : servers_) {
      c.updates += s.monitor->update_count();
      c.notifications += s.monitor->notifications_sent();
    }
    return c;
  }

  /// Waits until every notification the monitors sent has been queued at
  /// its proxy (oneways are asynchronous). False on timeout. Yields rather
  /// than sleeps, so no idle timer slack lands in the window's wall time.
  bool await_delivery() const {
    const uint64_t give_up = now_ns() + static_cast<uint64_t>(kDeliveryTimeout * 1e9);
    for (;;) {
      const Counters c = counters();
      if (c.delivered >= c.notifications) return true;
      if (now_ns() > give_up) return false;
      std::this_thread::yield();
    }
  }

  void invoke(adapt::core::SmartProxy& proxy, bool fetch, OpStream& ops, bool traced,
              Tally& tally, uint64_t op) {
    if (fetch) {
      const auto index = static_cast<uint32_t>(ops.between(0, kImages - 1));
      const auto reply =
          proxy_op(proxy, "fetch", {Value(static_cast<int>(index))}, kBulk, traced, tally, op);
      if (reply && !image_ok(*reply, index, *images_)) tally.fail(/*wrong=*/true);
      return;
    }
    const auto reply = proxy_op(proxy, "work", {}, kPrimary, traced, tally, op);
    if (!reply) return;
    if (!reply->is_string() || hosts_.count(reply->as_string()) == 0) {
      tally.fail(/*wrong=*/true);
      return;
    }
    if (!traced || op % kProbeEvery != 0) return;
    const adapt::ObjectRef target = proxy.current();
    const adapt::ValueList args = {Value("probe")};
    Value direct;
    {
      ScopedSpan span(tracer(), "orb.direct_invoke", op);
      direct = proxy.orb()->invoke(target, "echo", args);
    }
    if (direct != args[0]) tally.fail(/*wrong=*/true);
    probe_wire(target.object_id, "work", {}, *reply, op);
  }

  std::vector<adapt::orb::OrbPtr> client_orbs() const {
    std::vector<adapt::orb::OrbPtr> orbs;
    for (const auto& proxy : proxies_) orbs.push_back(proxy->orb());
    return orbs;
  }

  uint64_t seed_;
  std::shared_ptr<const ImageSet> images_;
  std::unique_ptr<adapt::core::Infrastructure> infra_;
  std::vector<Server> servers_;
  std::set<std::string> hosts_;
  std::vector<adapt::core::SmartProxyPtr> proxies_;
  std::unique_ptr<adapt::trading::TraderClient> trader_client_;
  std::unique_ptr<PredicateProbe> predicate_;  // built by the first traced phase
  QueryProbe query_probe_;
  LayerInputs layers_;
};

}  // namespace

std::unique_ptr<Workload> make_adapt_loop(uint64_t seed) {
  return std::make_unique<AdaptLoop>(seed);
}

}  // namespace perfbench
