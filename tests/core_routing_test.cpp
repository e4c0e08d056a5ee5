// Per-operation component choice and alternative methods — the two SIV-A
// smart-proxy behaviors beyond plain substitution: "choice of different
// components for different requested operations, use of alternative
// methods".
#include <gtest/gtest.h>

#include "core/infrastructure.h"

namespace adapt::core {
namespace {

using orb::FunctionServant;

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest() {
    trading::ServiceTypeDef type;
    type.name = "Mixed";
    type.properties = {{"Tier", "string", trading::PropertyDef::Mode::Normal}};
    infra_.trader().types().add(type);
  }

  /// Deploys a server advertising a Tier property; ops echo the host name.
  ObjectRef deploy(const std::string& name, const std::string& tier,
                   const std::vector<std::string>& ops = {"whoami"}) {
    infra_.make_host(name);
    auto servant = FunctionServant::make("Mixed");
    for (const auto& op : ops) {
      servant->on(op, [name](const ValueList&) { return Value(name); });
    }
    const ObjectRef provider = infra_.host_orb(name)->register_servant(servant, "svc");
    auto agent = infra_.make_agent(name);
    trading::PropertyMap props;
    props["Tier"] = trading::OfferedProperty(Value(tier));
    agent->export_offer("Mixed", provider, props);
    return provider;
  }

  SmartProxyPtr make_proxy() {
    SmartProxyConfig cfg;
    cfg.service_type = "Mixed";
    cfg.monitor_property = "";
    return infra_.make_proxy(cfg);
  }

  Infrastructure infra_{InfrastructureOptions{.name = "rt" + std::to_string(counter_++)}};
  static int counter_;
};

int RoutingTest::counter_ = 0;

TEST_F(RoutingTest, RoutedOperationUsesItsOwnComponent) {
  deploy("cheap", "standard", {"whoami", "archive"});
  deploy("fast", "premium", {"whoami", "archive"});
  auto proxy = make_proxy();
  proxy->route_operation("archive", "Tier == 'premium'");
  // Default ops go to the first offer; "archive" goes to the premium tier.
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "cheap");
  EXPECT_EQ(proxy->invoke("archive").as_string(), "fast");
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "cheap") << "main binding untouched";
  EXPECT_EQ(proxy->route_target("archive").endpoint, infra_.host_orb("fast")->endpoint());
}

TEST_F(RoutingTest, RouteCachedAcrossCalls) {
  deploy("cheap", "standard");
  deploy("fast", "premium");
  auto proxy = make_proxy();
  proxy->route_operation("whoami", "Tier == 'premium'");
  const uint64_t before = infra_.trader().dynamic_evals();
  proxy->invoke("whoami");
  const ObjectRef first = proxy->route_target("whoami");
  proxy->invoke("whoami");
  proxy->invoke("whoami");
  EXPECT_EQ(proxy->route_target("whoami"), first) << "selection cached, not re-queried";
  (void)before;
}

TEST_F(RoutingTest, RoutedOperationFailsOver) {
  deploy("p1", "premium");
  deploy("p2", "premium");
  auto proxy = make_proxy();
  proxy->route_operation("whoami", "Tier == 'premium'");
  const std::string first = proxy->invoke("whoami").as_string();
  infra_.host_orb(first)->unregister_servant("svc");
  const std::string second = proxy->invoke("whoami").as_string();
  EXPECT_NE(second, first);
}

TEST_F(RoutingTest, RouteWithNoMatchThrows) {
  deploy("cheap", "standard");
  auto proxy = make_proxy();
  proxy->route_operation("whoami", "Tier == 'gold'");
  EXPECT_THROW(proxy->invoke("whoami"), NoComponentAvailable);
}

TEST_F(RoutingTest, ClearRoutesRestoresDefaultBinding) {
  deploy("cheap", "standard");
  deploy("fast", "premium");
  auto proxy = make_proxy();
  proxy->route_operation("whoami", "Tier == 'premium'");
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "fast");
  proxy->clear_operation_routes();
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "cheap");
}

TEST_F(RoutingTest, RouteWithOwnPreference) {
  trading::ServiceTypeDef type;
  type.name = "Ranked";
  type.properties = {{"Rank", "number", trading::PropertyDef::Mode::Normal}};
  infra_.trader().types().add(type);
  for (int i = 1; i <= 3; ++i) {
    const std::string name = "r" + std::to_string(i);
    infra_.make_host(name);
    auto servant = FunctionServant::make("Ranked");
    servant->on("whoami", [name](const ValueList&) { return Value(name); });
    const ObjectRef provider = infra_.host_orb(name)->register_servant(servant);
    trading::PropertyMap props;
    props["Rank"] = trading::OfferedProperty(Value(static_cast<double>(i)));
    infra_.make_agent(name)->export_offer("Ranked", provider, props);
  }
  SmartProxyConfig cfg;
  cfg.service_type = "Ranked";
  cfg.monitor_property = "";
  auto proxy = infra_.make_proxy(cfg);
  proxy->route_operation("whoami", "", "max Rank");
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "r3");
}

// ---- alternative methods --------------------------------------------------

TEST_F(RoutingTest, AlternativeMethodUsedWhenMissing) {
  // Old interface: only "greet". Client code still calls "hello".
  deploy("legacy", "standard", {"greet"});
  auto proxy = make_proxy();
  proxy->add_method_alternative("hello", "greet");
  EXPECT_EQ(proxy->invoke("hello").as_string(), "legacy");
}

TEST_F(RoutingTest, AlternativeMethodUsedWhenMissingRoundRobin) {
  // A balancing policy changes only how the component is picked; the
  // alternative-method fallback still applies.
  deploy("legacy", "standard", {"greet"});
  SmartProxyConfig cfg;
  cfg.service_type = "Mixed";
  cfg.monitor_property = "";
  cfg.lb_policy = "round_robin";
  auto proxy = infra_.make_proxy(cfg);
  proxy->add_method_alternative("hello", "greet");
  EXPECT_EQ(proxy->invoke("hello").as_string(), "legacy");
}

TEST_F(RoutingTest, PrimaryMethodPreferredWhenPresent) {
  infra_.make_host("modern");
  auto servant = FunctionServant::make("Mixed");
  servant->on("hello", [](const ValueList&) { return Value("primary"); });
  servant->on("greet", [](const ValueList&) { return Value("alternative"); });
  const ObjectRef provider = infra_.host_orb("modern")->register_servant(servant);
  infra_.make_agent("modern")->export_offer("Mixed", provider, {});
  auto proxy = make_proxy();
  proxy->add_method_alternative("hello", "greet");
  EXPECT_EQ(proxy->invoke("hello").as_string(), "primary");
}

TEST_F(RoutingTest, AlternativeChainsFollowed) {
  deploy("oldest", "standard", {"salute"});
  auto proxy = make_proxy();
  proxy->add_method_alternative("hello", "greet");
  proxy->add_method_alternative("greet", "salute");
  EXPECT_EQ(proxy->invoke("hello").as_string(), "oldest");
}

TEST_F(RoutingTest, AlternativeCycleTerminates) {
  deploy("none", "standard", {"whoami"});
  auto proxy = make_proxy();
  proxy->add_method_alternative("a", "b");
  proxy->add_method_alternative("b", "a");
  EXPECT_THROW(proxy->invoke("a"), orb::BadOperation);
}

TEST_F(RoutingTest, NoAlternativeStillBadOperation) {
  deploy("plain", "standard");
  auto proxy = make_proxy();
  EXPECT_THROW(proxy->invoke("unknown_op"), orb::BadOperation);
}

TEST_F(RoutingTest, AlternativesApplyToRoutedOperations) {
  deploy("preleg", "premium", {"greet"});
  auto proxy = make_proxy();
  proxy->route_operation("hello", "Tier == 'premium'");
  proxy->add_method_alternative("hello", "greet");
  EXPECT_EQ(proxy->invoke("hello").as_string(), "preleg");
}

}  // namespace
}  // namespace adapt::core
