// trader_churn: trader cost in isolation. Two closed-loop client threads
// call TraderClient over TCP against a store of 40 service types x 50 offers
// with static properties (evenly spread per type, see Slot), exported over
// TCP during set-up. 80% of ops are queries (skewed type choice,
// constraints of varied selectivity, first/min/max/with preferences,
// return_card 1 or 10), 20% are writes (modify, refresh, and paired
// export+withdraw that keep the store size constant) running beside the
// reads. So that the bulk and adapt metrics have samples here too, six
// image fetches and two explicit strategy activations, through a sticky
// proxy to one image server, run alone at the start of every window.
#include "workloads.h"

namespace perfbench {
namespace {

using adapt::Value;
namespace trading = adapt::trading;

constexpr size_t kClients = 2;
constexpr double kWindow = 0.25;  // seconds
constexpr int kTypes = 40;
constexpr int kOffersPerType = 50;
constexpr uint64_t kProbeEvery = 4;
/// Image fetches and explicit strategy activations run alone per window.
constexpr uint64_t kSoloFetches = 6;
constexpr uint64_t kSoloAdapts = 2;
const char* const kImageType = "Bench";
const char* const kRegions[] = {"eu", "us", "ap", "sa"};

std::string type_name(size_t t) { return (t < 10 ? "T0" : "T") + std::to_string(t); }

/// One generated query and how to check its answer.
struct Query {
  std::string type;
  std::string constraint;
  std::string preference;
  size_t return_card = 1;
  enum class Filter { All, CostBelow, Region, RegionCostBelow, RankAtLeast } filter{};
  double bound = 0;
  std::string region;

  static Query make(OpStream& ops) {
    Query q;
    q.type = type_name(ops.zipf(kTypes));
    q.region = kRegions[ops.between(0, 3)];
    switch (ops.between(0, 4)) {
      case 0:
        q.filter = Filter::All;
        break;
      case 1:
        q.filter = Filter::CostBelow;
        q.bound = static_cast<double>(ops.between(50, 950));
        q.constraint = "Cost < " + std::to_string(static_cast<int>(q.bound));
        break;
      case 2:
        q.filter = Filter::Region;
        q.constraint = "Region == '" + q.region + "'";
        break;
      case 3:
        q.filter = Filter::RegionCostBelow;
        q.bound = static_cast<double>(ops.between(100, 900));
        q.constraint =
            "Region == '" + q.region + "' and Cost < " + std::to_string(static_cast<int>(q.bound));
        break;
      default:
        q.filter = Filter::RankAtLeast;
        q.bound = static_cast<double>(ops.between(1, 100));
        q.constraint = "Rank >= " + std::to_string(static_cast<int>(q.bound));
        break;
    }
    static const char* const kPreferences[] = {"first", "min Cost", "max Rank",
                                               "with Region == 'ap'"};
    q.preference = kPreferences[ops.between(0, 3)];
    q.return_card = ops.uniform() < 0.5 ? 1 : 10;
    return q;
  }

  [[nodiscard]] bool satisfied_by(const trading::OfferInfo& o) const {
    auto num = [&](const char* name) {
      const auto it = o.properties.find(name);
      return it != o.properties.end() && it->second.is_number() ? it->second.as_number() : -1.0;
    };
    auto str = [&](const char* name) {
      const auto it = o.properties.find(name);
      return it != o.properties.end() && it->second.is_string() ? it->second.as_string()
                                                                 : std::string();
    };
    if (o.service_type != type) return false;
    switch (filter) {
      case Filter::All:
        return true;
      case Filter::CostBelow:
        return num("Cost") >= 0 && num("Cost") < bound;
      case Filter::Region:
        return str("Region") == region;
      case Filter::RegionCostBelow:
        return str("Region") == region && num("Cost") >= 0 && num("Cost") < bound;
      case Filter::RankAtLeast:
        return num("Rank") >= bound;
    }
    return false;
  }

  /// Constraint, ordering and return_card checks. `sequence` maps an offer
  /// to its registration order (nullopt once withdrawn by a concurrent
  /// writer). Every type always holds at least kOffersPerType live offers
  /// (writers export before they withdraw), so a query without a constraint
  /// returns exactly return_card of them.
  template <typename Sequence>
  [[nodiscard]] bool answer_ok(const std::vector<trading::OfferInfo>& got,
                               const Sequence& sequence) const {
    if (got.size() > return_card) return false;
    if (filter == Filter::All && got.size() != return_card) return false;
    for (const auto& o : got) {
      if (!satisfied_by(o)) return false;
    }
    for (size_t i = 1; i < got.size(); ++i) {
      const auto& a = got[i - 1].properties;
      const auto& b = got[i].properties;
      if (preference == "min Cost" && a.at("Cost").as_number() > b.at("Cost").as_number()) {
        return false;
      }
      if (preference == "max Rank" && a.at("Rank").as_number() < b.at("Rank").as_number()) {
        return false;
      }
      if (preference[0] == 'w' && a.at("Region").as_string() != "ap" &&
          b.at("Region").as_string() == "ap") {
        return false;
      }
      if (preference == "first") {
        const auto sa = sequence(got[i - 1].offer_id);
        const auto sb = sequence(got[i].offer_id);
        if (sa && sb && *sa > *sb) return false;
      }
    }
    return true;
  }
};

/// The static properties of one store slot. Every type holds one offer per
/// slot, and its slots spread their values evenly: Cost bands of 20, Rank
/// 1, 3, ..., 99 and the four regions in turn, paired by seeded
/// permutations. So every type answers a constraint with the same
/// selectivity whatever the seed, and the seed changes only which offer
/// holds which values and the op sequence. Writes keep a slot in its Cost
/// band.
struct Slot {
  int cost_band = 0;
  int rank = 1;
  const char* region = "eu";
  [[nodiscard]] double cost(OpStream& ops) const {
    return static_cast<double>(cost_band * 20 + static_cast<int>(ops.between(0, 19)));
  }
  [[nodiscard]] trading::PropertyMap props(OpStream& ops) const {
    return {{"Cost", Value(cost(ops))},
            {"Region", Value(region)},
            {"Rank", Value(static_cast<double>(rank))}};
  }
};

/// The slots of one type: kOffersPerType values of each property, paired
/// by seeded permutations.
std::vector<Slot> type_slots(OpStream& ops) {
  auto permutation = [&ops] {
    std::vector<int> p(kOffersPerType);
    for (int i = 0; i < kOffersPerType; ++i) p[static_cast<size_t>(i)] = i;
    for (size_t i = p.size() - 1; i > 0; --i) std::swap(p[i], p[ops.between(0, i)]);
    return p;
  };
  const std::vector<int> costs = permutation();
  const std::vector<int> ranks = permutation();
  const std::vector<int> regions = permutation();
  std::vector<Slot> slots(kOffersPerType);
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i].cost_band = costs[i];
    slots[i].rank = 1 + 2 * ranks[i];
    slots[i].region = kRegions[regions[i] % 4];
  }
  return slots;
}

/// Offers a client alone writes (so read-backs never race another writer).
struct Owned {
  std::vector<std::string> ids;
  std::vector<std::string> types;
  std::vector<Slot> slots;
};

class TraderChurn final : public Workload {
 public:
  explicit TraderChurn(uint64_t seed) : seed_(seed), images_(ImageSet::make()) {}
  ~TraderChurn() override { teardown(); }

  void setup(int attempt) override {
    infra_ = std::make_unique<adapt::core::Infrastructure>(adapt::core::InfrastructureOptions{
        .simulated_time = true, .tcp = true, .name = "tchurn" + std::to_string(attempt)});
    for (size_t t = 0; t < kTypes; ++t) {
      trading::ServiceTypeDef def;
      def.name = type_name(t);
      infra_->trader().types().add(def);
    }
    trading::ServiceTypeDef image_type;
    image_type.name = kImageType;
    infra_->trader().types().add(image_type);
    deploy_server(*infra_, "img", kImageType, 0.0, images_);

    // The store is exported over TCP, so set-up measures real trader work.
    provider_orb_ = infra_->make_orb("providers");
    trading::TraderClient loader(provider_orb_, infra_->lookup_ref(), infra_->register_ref());
    OpStream props(seed_, 1000);
    owned_.assign(kClients, Owned{});
    for (size_t t = 0; t < kTypes; ++t) {
      const std::string type = type_name(t);
      const std::vector<Slot> slots = type_slots(props);
      for (size_t i = 0; i < slots.size(); ++i) {
        const std::string id =
            loader.export_offer(type, provider_orb_->make_ref(type + "-" + std::to_string(i)),
                                slots[i].props(props));
        Owned& owner = owned_[i % kClients];
        owner.ids.push_back(id);
        owner.types.push_back(type);
        owner.slots.push_back(slots[i]);
      }
    }
    for (size_t c = 0; c < kClients; ++c) {
      ProxyClient client;
      client.proxy = make_e1_proxy(*infra_, kImageType);
      client.trader = std::make_unique<trading::TraderClient>(
          client.proxy->orb(), infra_->lookup_ref(), infra_->register_ref());
      if (client.proxy->invoke("echo", {Value("warm-up")}) != Value("warm-up") ||
          client.trader->query(type_name(0), "", "first").empty()) {
        throw std::runtime_error("trader_churn: warm-up op failed");
      }
      clients_.push_back(std::move(client));
    }
  }

  void teardown() override {
    clients_.clear();
    provider_orb_.reset();
    if (infra_) infra_->shutdown();
    infra_.reset();
  }

  Phase run(double seconds, bool traced) override {
    const auto orbs = client_orbs();
    const OrbWindow orb0 = OrbWindow::of(orbs);
    const ObsWindow obs0 = ObsWindow::now();
    const uint64_t handled0 = events_handled();
    const uint64_t rebinds0 = rebinds();
    std::vector<OpStream> streams;
    for (uint64_t c = 0; c < kClients; ++c) streams.emplace_back(seed_, c);
    std::vector<Counts> counts(kClients);
    OpStream solo_ops(seed_, kClients);
    Phase phase = run_clients(kClients, seconds, kWindow, [&](size_t c, Tally& tally,
                                                              uint64_t n, uint64_t op) {
      OpStream& ops = streams[c];
      if (ops.uniform() < 0.8) {
        query_op(clients_[c], ops, traced, tally, counts[c], op, n);
      } else {
        write_op(clients_[c], owned_[c], ops, traced, tally, op, n);
      }
    }, [&](Tally& tally, uint64_t w) {
      for (uint64_t i = 0; i < kSoloFetches; ++i) {
        const uint64_t op = next_op_id();
        ScopedSpan span(tracer(), "op", op);
        fetch_op(clients_[(w + i) % kClients], solo_ops, *images_, traced, tally, op,
                 w * kSoloFetches + i, kProbeEvery);
      }
      for (uint64_t i = 0; i < kSoloAdapts; ++i) {
        const uint64_t op = next_op_id();
        ScopedSpan span(tracer(), "op", op);
        adapt_op(clients_[(w + i) % kClients], solo_ops, infra_->trader(), query_probe_, traced,
                 tally, op);
      }
    });
    if (traced) {
      layers_ = LayerInputs{};
      layers_.orb = OrbWindow::of(orbs) - orb0;
      layers_.obs_before = obs0;
      layers_.obs_after = ObsWindow::now();
      layers_.events_handled = events_handled() - handled0;
      for (const Counts& k : counts) {
        layers_.queries += k.queries;
        layers_.results += k.results;
      }
      layers_.dyn_queries = query_probe_.queries;
      for (const Counts& k : counts) layers_.dyn_queries += k.local;
      layers_.dynamic_evals = query_probe_.dynamic_evals;
      layers_.rebinds = rebinds() - rebinds0;
    }
    return phase;
  }

  void per_layer(const Phase& traced, Result& out) override {
    common_layers(traced, layers_, out);
  }

 private:
  struct Counts {
    uint64_t queries = 0, results = 0, local = 0;
  };

  std::optional<uint64_t> sequence_of(const std::string& offer_id) const {
    try {
      return infra_->trader().describe(offer_id).sequence;
    } catch (const trading::UnknownOffer&) {
      return std::nullopt;  // withdrawn by the other client since the answer
    }
  }

  void query_op(ProxyClient& c, OpStream& ops, bool traced, Tally& tally, Counts& counts,
                uint64_t op, uint64_t n) {
    const Query q = Query::make(ops);
    trading::LookupPolicies policies;
    policies.return_card = q.return_card;
    ++tally.attempted;
    try {
      std::vector<trading::OfferInfo> got;
      const uint64_t start = now_ns();
      {
        ScopedSpan span(tracer(), "trading.query_remote", op);
        got = c.trader->query(q.type, q.constraint, q.preference, {}, policies);
      }
      tally.us[kPrimary].push_back(static_cast<double>(now_ns() - start) / 1000.0);
      ++counts.queries;
      counts.results += got.size();
      if (!q.answer_ok(got, [this](const std::string& id) { return sequence_of(id); }) ||
          (got.empty() && !empty_answer_ok(c, q, policies))) {
        tally.fail(/*wrong=*/true);
        return;
      }
      if (!traced || n % kProbeEvery != 0) return;
      {
        ScopedSpan span(tracer(), "trading.parse", op);
        (void)trading::Constraint::parse(q.constraint);
        (void)trading::Preference::parse(q.preference);
      }
      ScopedSpan span(tracer(), "trading.query_local", op);
      (void)infra_->trader().query(q.type, q.constraint, q.preference, {}, policies);
      ++counts.local;
    } catch (const adapt::Error&) {
      tally.fail();
    }
  }

  /// An empty remote answer is wrong when the in-process trader, asked the
  /// same right after, finds offers and a second remote query still finds
  /// none. Asking twice keeps a concurrent write that makes an offer match
  /// between the two answers from reading as a wrong answer.
  bool empty_answer_ok(ProxyClient& c, const Query& q,
                       const trading::LookupPolicies& policies) const {
    if (infra_->trader().query(q.type, q.constraint, q.preference, {}, policies).empty()) {
      return true;
    }
    return !c.trader->query(q.type, q.constraint, q.preference, {}, policies).empty();
  }

  void write_op(ProxyClient& c, Owned& owned, OpStream& ops, bool traced, Tally& tally,
                uint64_t op, uint64_t n) {
    trading::Trader& trader = infra_->trader();
    const size_t slot = ops.between(0, owned.ids.size() - 1);
    const double r = ops.uniform();
    if (r < 0.5) {
      modify_op(*c.trader, trader, owned.ids[slot], "Cost", owned.slots[slot].cost(ops), traced,
                tally, op);
      return;
    }
    if (r < 0.7) {
      timed_write(tally, op, [&] { c.trader->refresh(owned.ids[slot], 0); },
                  [&] { return trader.describe(owned.ids[slot]).expires_at <= 0; });
      if (traced && n % kProbeEvery == 0) {
        ScopedSpan span(tracer(), "trading.write_local", op);
        trader.refresh(owned.ids[slot], 0);
      }
      return;
    }
    // Paired export + withdraw: the slot's offer is replaced by a fresh one.
    const std::string type = owned.types[slot];
    const trading::PropertyMap props = owned.slots[slot].props(ops);
    std::string fresh;
    const adapt::ObjectRef provider = provider_orb_->make_ref(type + "-churn");
    if (!timed_write(tally, op,
                     [&] { fresh = c.trader->export_offer(type, provider, props); },
                     [&] { return trader.describe(fresh).service_type == type; })) {
      return;
    }
    const std::string old = owned.ids[slot];
    owned.ids[slot] = fresh;
    timed_write(tally, op, [&] { c.trader->withdraw(old); }, [&] { return !sequence_of(old); });
    if (traced && n % kProbeEvery == 0) {
      std::string local;
      {
        ScopedSpan span(tracer(), "trading.write_local", op);
        local = trader.export_offer(type, provider, props);
      }
      ScopedSpan span(tracer(), "trading.write_local", op);
      trader.withdraw(local);
    }
  }

  /// Times one remote write as a kWrite op and checks it with `verify`.
  template <typename Write, typename Verify>
  bool timed_write(Tally& tally, uint64_t op, Write write, Verify verify) {
    ++tally.attempted;
    try {
      const uint64_t start = now_ns();
      {
        ScopedSpan span(tracer(), "trading.write_remote", op);
        write();
      }
      tally.us[kWrite].push_back(static_cast<double>(now_ns() - start) / 1000.0);
      if (!verify()) {
        tally.fail(/*wrong=*/true);
        return false;
      }
      return true;
    } catch (const adapt::Error&) {
      tally.fail();
      return false;
    }
  }

  uint64_t events_handled() const {
    uint64_t total = 0;
    for (const ProxyClient& client : clients_) total += client.proxy->events_handled();
    return total;
  }

  uint64_t rebinds() const {
    uint64_t total = 0;
    for (const ProxyClient& client : clients_) total += client.proxy->rebinds();
    return total;
  }

  std::vector<adapt::orb::OrbPtr> client_orbs() const {
    std::vector<adapt::orb::OrbPtr> orbs;
    for (const ProxyClient& client : clients_) orbs.push_back(client.proxy->orb());
    return orbs;
  }

  uint64_t seed_;
  std::shared_ptr<const ImageSet> images_;
  std::unique_ptr<adapt::core::Infrastructure> infra_;
  adapt::orb::OrbPtr provider_orb_;
  std::vector<Owned> owned_;
  std::vector<ProxyClient> clients_;
  QueryProbe query_probe_;
  LayerInputs layers_;
};

}  // namespace

std::unique_ptr<Workload> make_trader_churn(uint64_t seed) {
  return std::make_unique<TraderChurn>(seed);
}

}  // namespace perfbench
