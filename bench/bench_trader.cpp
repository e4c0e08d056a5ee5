// bench_trader (experiments C4, D3) — trading-service lookup costs.
//
// Paper dependency (SIV): dynamic component selection happens through
// trader queries whose properties may be *dynamic* (one evalDP callback per
// offer per query). This bench quantifies:
//   * lookup latency vs. number of offers (static properties),
//   * the marginal cost of dynamic properties (D3),
//   * constraint complexity,
//   * preference ordering cost,
//   * the remote (cross-ORB) query path used by real clients,
//   * constraint parse cost,
//   * that a query's cost does not grow with unrelated types in the store.
#include <benchmark/benchmark.h>

#include "orb/orb.h"
#include "trading/trader.h"

using namespace adapt;
using namespace adapt::trading;

namespace {

struct TraderFixture {
  /// `offers` offers of type "Svc", plus `unrelated_types` other types of
  /// `offers` offers each, exported before them.
  explicit TraderFixture(int offers, bool dynamic_props, int unrelated_types = 0)
      : orb(orb::Orb::create()), trader(orb, {.name = "bench-trader"}) {
    ServiceTypeDef type;
    type.name = "Svc";
    type.properties = {{"LoadAvg", "number", PropertyDef::Mode::Normal},
                       {"Host", "string", PropertyDef::Mode::Normal},
                       {"Rank", "number", PropertyDef::Mode::Normal}};
    trader.types().add(type);
    for (int t = 0; t < unrelated_types; ++t) {
      type.name = "Other" + std::to_string(t);
      trader.types().add(type);
      export_offers(type.name, offers, false);
    }

    if (dynamic_props) {
      auto evaluator = orb::FunctionServant::make("DynamicPropEval");
      evaluator->on("evalDP", [this](const ValueList&) {
        return Value(static_cast<double>(eval_calls++ % 100));
      });
      eval_ref = orb->register_servant(evaluator);
    }
    export_offers("Svc", offers, dynamic_props);
  }

  void export_offers(const std::string& type, int offers, bool dynamic_props) {
    auto servant = orb::FunctionServant::make("Svc");
    for (int i = 0; i < offers; ++i) {
      PropertyMap props;
      props["Host"] = OfferedProperty(Value("host-" + std::to_string(i)));
      props["Rank"] = OfferedProperty(Value(static_cast<double>(i)));
      if (dynamic_props) {
        props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
      } else {
        props["LoadAvg"] = OfferedProperty(Value(static_cast<double>(i % 100)));
      }
      trader.export_offer(type, orb->register_servant(servant), props);
    }
  }

  orb::OrbPtr orb;
  Trader trader;
  ObjectRef eval_ref;
  uint64_t eval_calls = 0;
};

void BM_QueryStaticProps(benchmark::State& state) {
  TraderFixture fx(static_cast<int>(state.range(0)), /*dynamic=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.trader.query("Svc", "LoadAvg < 50", "min LoadAvg"));
  }
  state.SetLabel(std::to_string(state.range(0)) + " offers, static LoadAvg");
}
BENCHMARK(BM_QueryStaticProps)->Arg(10)->Arg(100)->Arg(1000);

void BM_QueryDynamicProps(benchmark::State& state) {
  TraderFixture fx(static_cast<int>(state.range(0)), /*dynamic=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.trader.query("Svc", "LoadAvg < 50", "min LoadAvg"));
  }
  state.SetLabel(std::to_string(state.range(0)) +
                 " offers, dynamic LoadAvg (one evalDP per offer, D3)");
}
BENCHMARK(BM_QueryDynamicProps)->Arg(10)->Arg(100)->Arg(1000);

void BM_QueryConstraintComplexity(benchmark::State& state) {
  TraderFixture fx(100, /*dynamic=*/false);
  const char* constraints[] = {
      "TRUE",
      "LoadAvg < 50",
      "LoadAvg < 50 and Rank > 10 and Rank < 90",
      "(LoadAvg < 50 or Rank > 95) and not (Host == 'host-3') and exist Rank and "
      "Rank * 2 + LoadAvg / 3 < 120",
  };
  const char* c = constraints[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.trader.query("Svc", c));
  }
  state.SetLabel(c);
}
BENCHMARK(BM_QueryConstraintComplexity)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_QueryPreferences(benchmark::State& state) {
  TraderFixture fx(200, /*dynamic=*/false);
  const char* prefs[] = {"first", "min LoadAvg", "max Rank", "with LoadAvg < 25", "random"};
  const char* p = prefs[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.trader.query("Svc", "", p));
  }
  state.SetLabel(p);
}
BENCHMARK(BM_QueryPreferences)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_QueryRemoteViaOrb(benchmark::State& state) {
  // What a smart proxy actually pays: the query through the Lookup servant.
  TraderFixture fx(100, /*dynamic=*/false);
  auto client_orb = orb::Orb::create();
  TraderClient client(client_orb, fx.trader.lookup_ref());
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.query("Svc", "LoadAvg < 50", "min LoadAvg"));
  }
}
BENCHMARK(BM_QueryRemoteViaOrb);

void BM_ReturnCardTruncation(benchmark::State& state) {
  TraderFixture fx(1000, /*dynamic=*/false);
  LookupPolicies policies;
  policies.return_card = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.trader.query("Svc", "", "", {}, policies));
  }
  state.SetLabel("return_card=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ReturnCardTruncation)->Arg(1)->Arg(10)->Arg(100);

void BM_QueryAmongUnrelatedTypes(benchmark::State& state) {
  // One 50-offer type queried while 0..40 unrelated 50-offer types share the
  // store: the per-type index keeps the cost flat.
  TraderFixture fx(50, /*dynamic=*/false, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.trader.query("Svc", "LoadAvg < 50", "min LoadAvg"));
  }
  state.SetLabel(std::to_string(state.range(0)) + " unrelated types of 50 offers");
}
BENCHMARK(BM_QueryAmongUnrelatedTypes)->Arg(0)->Arg(10)->Arg(40);

void BM_ExportWithdraw(benchmark::State& state) {
  TraderFixture fx(0, /*dynamic=*/false);
  auto servant = orb::FunctionServant::make("Svc");
  const ObjectRef provider = fx.orb->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["LoadAvg"] = OfferedProperty(Value(1.0));
  for (auto _ : state) {
    const std::string id = fx.trader.export_offer("Svc", provider, props);
    fx.trader.withdraw(id);
  }
}
BENCHMARK(BM_ExportWithdraw);

void BM_ConstraintParse(benchmark::State& state) {
  const std::string text = "LoadAvg < 50 and LoadAvgIncreasing == 'no' ";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Constraint::parse(text));
  }
  state.SetLabel("the paper's SV query");
}
BENCHMARK(BM_ConstraintParse);

void BM_ConstraintEvaluate(benchmark::State& state) {
  const Constraint c = Constraint::parse("LoadAvg < 50 and LoadAvgIncreasing == 'no'");
  PropertyLookup props = [](const std::string& name) -> std::optional<Value> {
    if (name == "LoadAvg") return Value(35.0);
    if (name == "LoadAvgIncreasing") return Value("no");
    return std::nullopt;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.matches(props));
  }
}
BENCHMARK(BM_ConstraintEvaluate);

}  // namespace

BENCHMARK_MAIN();
