// proxy_rpc: the RPC path in isolation. One server host, two closed-loop
// client threads, each with its own sticky SmartProxy on its own client
// ORB. Virtual time never advances, so monitors never update; the seeded
// closed-loop mix is 90% small echoes (primary) and 10% 64 KiB image
// fetches (bulk). So that every end-to-end metric has samples here too, two
// explicit strategy activations and four trader writes run alone at the
// start of every window.
#include "workloads.h"

namespace perfbench {
namespace {

using adapt::Value;

constexpr size_t kClients = 2;
constexpr double kWindow = 0.25;  // seconds
constexpr uint64_t kProbeEvery = 8;
/// Explicit strategy activations and trader writes run alone per window.
constexpr uint64_t kSoloAdapts = 2;
constexpr uint64_t kSoloWrites = 4;
const char* const kType = "Bench";

class ProxyRpc final : public Workload {
 public:
  explicit ProxyRpc(uint64_t seed) : seed_(seed), images_(ImageSet::make()) {}
  ~ProxyRpc() override { teardown(); }

  void setup(int attempt) override {
    infra_ = std::make_unique<adapt::core::Infrastructure>(adapt::core::InfrastructureOptions{
        .simulated_time = true, .tcp = true, .name = "prpc" + std::to_string(attempt)});
    adapt::trading::ServiceTypeDef type;
    type.name = kType;
    infra_->trader().types().add(type);
    server_ = deploy_server(*infra_, "h1", kType, 0.0, images_);
    for (size_t c = 0; c < kClients; ++c) {
      ProxyClient client;
      client.proxy = make_e1_proxy(*infra_, kType);
      client.trader = std::make_unique<adapt::trading::TraderClient>(
          client.proxy->orb(), infra_->lookup_ref(), infra_->register_ref());
      if (client.proxy->invoke("echo", {Value("warm-up")}) != Value("warm-up")) {
        throw std::runtime_error("proxy_rpc: warm-up echo returned the wrong value");
      }
      clients_.push_back(std::move(client));
    }
  }

  void teardown() override {
    clients_.clear();
    if (infra_) infra_->shutdown();
    infra_.reset();
  }

  Phase run(double seconds, bool traced) override {
    const auto orbs = client_orbs();
    const OrbWindow orb0 = OrbWindow::of(orbs);
    const ObsWindow obs0 = ObsWindow::now();
    const Counters c0 = counters();
    std::vector<OpStream> streams;
    for (uint64_t c = 0; c < kClients; ++c) streams.emplace_back(seed_, c);
    OpStream solo_ops(seed_, kClients);
    uint64_t writes = 0;
    Phase phase = run_clients(kClients, seconds, kWindow, [&](size_t c, Tally& tally,
                                                              uint64_t n, uint64_t op) {
      ProxyClient& client = clients_[c];
      OpStream& ops = streams[c];
      if (ops.uniform() < 0.9) {
        echo_op(client, ops, traced, tally, op, n, kProbeEvery);
      } else {
        fetch_op(client, ops, *images_, traced, tally, op, n, kProbeEvery);
      }
    }, [&](Tally& tally, uint64_t w) {
      for (uint64_t i = 0; i < kSoloAdapts; ++i) {
        const uint64_t op = next_op_id();
        ScopedSpan span(tracer(), "op", op);
        adapt_op(clients_[(w + i) % kClients], solo_ops, infra_->trader(), query_probe_, traced,
                 tally, op);
      }
      for (uint64_t i = 0; i < kSoloWrites; ++i) {
        const uint64_t op = next_op_id();
        ScopedSpan span(tracer(), "op", op);
        modify_op(*clients_[(w + i) % kClients].trader, infra_->trader(), server_.offer_id,
                  "Mark", static_cast<double>(++writes), traced, tally, op);
      }
    });
    if (traced) {
      const Counters c1 = counters();
      layers_ = LayerInputs{};
      layers_.orb = OrbWindow::of(orbs) - orb0;
      layers_.obs_before = obs0;
      layers_.obs_after = ObsWindow::now();
      layers_.events_handled = c1.events_handled - c0.events_handled;
      layers_.rebinds = c1.rebinds - c0.rebinds;
      layers_.monitor_updates = c1.updates - c0.updates;
      layers_.notifications = c1.notifications - c0.notifications;
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
    uint64_t events_handled = 0, rebinds = 0, updates = 0, notifications = 0;
  };

  Counters counters() const {
    Counters c;
    for (const ProxyClient& client : clients_) {
      c.events_handled += client.proxy->events_handled();
      c.rebinds += client.proxy->rebinds();
    }
    c.updates = server_.monitor->update_count();
    c.notifications = server_.monitor->notifications_sent();
    return c;
  }

  std::vector<adapt::orb::OrbPtr> client_orbs() const {
    std::vector<adapt::orb::OrbPtr> orbs;
    for (const ProxyClient& client : clients_) orbs.push_back(client.proxy->orb());
    return orbs;
  }

  uint64_t seed_;
  std::shared_ptr<const ImageSet> images_;
  std::unique_ptr<adapt::core::Infrastructure> infra_;
  Server server_;
  std::vector<ProxyClient> clients_;
  QueryProbe query_probe_;
  LayerInputs layers_;
};

}  // namespace

std::unique_ptr<Workload> make_proxy_rpc(uint64_t seed) { return std::make_unique<ProxyRpc>(seed); }

}  // namespace perfbench
