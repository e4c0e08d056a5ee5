// Trader tests: service types, offer lifecycle, queries with constraints and
// preferences, dynamic properties, policies, federation, remote clients.
#include "trading/trader.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>

namespace adapt::trading {
namespace {

using orb::FunctionServant;
using orb::Orb;
using orb::OrbPtr;

class TraderTest : public ::testing::Test {
 protected:
  TraderTest() : orb_(Orb::create()), trader_(orb_, {.name = "t1"}) {
    ServiceTypeDef type;
    type.name = "LoadService";
    type.interface = "";
    type.properties = {
        {"LoadAvg", "number", PropertyDef::Mode::Normal},
        {"Host", "string", PropertyDef::Mode::Mandatory},
        {"Arch", "string", PropertyDef::Mode::MandatoryReadonly},
    };
    trader_.types().add(type);
  }

  /// Exports an offer backed by a trivial servant; returns the offer id.
  std::string export_host(const std::string& host, double load,
                          const std::string& arch = "x86") {
    auto servant = FunctionServant::make("");
    servant->on("hello", [](const ValueList&) { return Value("hi"); });
    const ObjectRef provider = orb_->register_servant(servant);
    PropertyMap props;
    props["LoadAvg"] = OfferedProperty(Value(load));
    props["Host"] = OfferedProperty(Value(host));
    props["Arch"] = OfferedProperty(Value(arch));
    return trader_.export_offer("LoadService", provider, std::move(props));
  }

  OrbPtr orb_;
  Trader trader_;
};

// ---- service types ----------------------------------------------------------

TEST_F(TraderTest, TypeRepositoryBasics) {
  EXPECT_TRUE(trader_.types().has("LoadService"));
  EXPECT_FALSE(trader_.types().has("Nothing"));
  EXPECT_THROW(trader_.types().add({.name = "LoadService"}), DuplicateServiceType);
}

TEST_F(TraderTest, SubtypesParticipateInQueries) {
  ServiceTypeDef sub;
  sub.name = "FastLoadService";
  sub.supertypes = {"LoadService"};
  trader_.types().add(sub);
  EXPECT_TRUE(trader_.types().is_subtype("FastLoadService", "LoadService"));

  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h1"));
  props["Arch"] = OfferedProperty(Value("arm"));
  trader_.export_offer("FastLoadService", provider, props);

  EXPECT_EQ(trader_.query("LoadService", "").size(), 1u);
  LookupPolicies exact;
  exact.exact_type_match = true;
  EXPECT_EQ(trader_.query("LoadService", "", "", {}, exact).size(), 0u);
  EXPECT_EQ(trader_.query("FastLoadService", "").size(), 1u);
}

TEST_F(TraderTest, SubtypePropertyConflictRejected) {
  ServiceTypeDef bad;
  bad.name = "BadSub";
  bad.supertypes = {"LoadService"};
  bad.properties = {{"LoadAvg", "string", PropertyDef::Mode::Normal}};
  EXPECT_THROW(trader_.types().add(bad), PropertyMismatch);
}

TEST_F(TraderTest, MaskedTypeRejectsExports) {
  trader_.types().mask("LoadService");
  EXPECT_THROW(export_host("h", 1.0), TradingError);
  trader_.types().unmask("LoadService");
  EXPECT_NO_THROW(export_host("h", 1.0));
}

TEST_F(TraderTest, RemoveTypeWithSubtypesRejected) {
  ServiceTypeDef sub;
  sub.name = "Sub";
  sub.supertypes = {"LoadService"};
  trader_.types().add(sub);
  EXPECT_THROW(trader_.types().remove("LoadService"), TradingError);
  trader_.types().remove("Sub");
  EXPECT_NO_THROW(trader_.types().remove("LoadService"));
}

// ---- offer lifecycle --------------------------------------------------------

TEST_F(TraderTest, ExportAndDescribe) {
  const std::string id = export_host("node-1", 12.0);
  const ServiceOffer offer = trader_.describe(id);
  EXPECT_EQ(offer.service_type, "LoadService");
  EXPECT_DOUBLE_EQ(offer.properties.at("LoadAvg").static_value().as_number(), 12.0);
  EXPECT_EQ(trader_.offer_count(), 1u);
}

TEST_F(TraderTest, ExportValidatesServiceType) {
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  EXPECT_THROW(trader_.export_offer("NoSuchType", provider, {}), UnknownServiceType);
}

TEST_F(TraderTest, ExportValidatesMandatoryProperties) {
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;  // Host and Arch are mandatory
  props["LoadAvg"] = OfferedProperty(Value(1.0));
  EXPECT_THROW(trader_.export_offer("LoadService", provider, props), PropertyMismatch);
}

TEST_F(TraderTest, ExportValidatesPropertyTypes) {
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value(42.0));  // must be string
  props["Arch"] = OfferedProperty(Value("x86"));
  EXPECT_THROW(trader_.export_offer("LoadService", provider, props), PropertyMismatch);
}

TEST_F(TraderTest, ExportValidatesInterfaceConformance) {
  orb_->interfaces().define_idl(R"(
    interface Base { void ping(); };
    interface Conforming : Base { void extra(); };
    interface Unrelated { void nope(); };
  )");
  ServiceTypeDef type;
  type.name = "TypedService";
  type.interface = "Base";
  trader_.types().add(type);

  const ObjectRef good = orb_->register_servant(FunctionServant::make("Conforming"));
  const ObjectRef bad = orb_->register_servant(FunctionServant::make("Unrelated"));
  EXPECT_NO_THROW(trader_.export_offer("TypedService", good, {}));
  EXPECT_THROW(trader_.export_offer("TypedService", bad, {}), PropertyMismatch);
}

TEST_F(TraderTest, WithdrawRemovesOffer) {
  const std::string id = export_host("node-1", 10.0);
  trader_.withdraw(id);
  EXPECT_EQ(trader_.offer_count(), 0u);
  EXPECT_THROW(trader_.withdraw(id), UnknownOffer);
  EXPECT_THROW(trader_.describe(id), UnknownOffer);
}

TEST_F(TraderTest, WithdrawProviderRemovesAllItsOffers) {
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  trader_.export_offer("LoadService", provider, props);
  trader_.export_offer("LoadService", provider, props);
  export_host("other", 1.0);
  EXPECT_EQ(trader_.withdraw_provider(provider), 2u);
  EXPECT_EQ(trader_.offer_count(), 1u);
}

TEST_F(TraderTest, ModifyChangesProperties) {
  const std::string id = export_host("node-1", 10.0);
  PropertyMap changes;
  changes["LoadAvg"] = OfferedProperty(Value(99.0));
  trader_.modify(id, changes);
  EXPECT_DOUBLE_EQ(trader_.describe(id).properties.at("LoadAvg").static_value().as_number(),
                   99.0);
}

TEST_F(TraderTest, ModifyReadonlyRejected) {
  const std::string id = export_host("node-1", 10.0, "sparc");
  PropertyMap changes;
  changes["Arch"] = OfferedProperty(Value("x86"));
  EXPECT_THROW(trader_.modify(id, changes), PropertyMismatch);
}

// ---- queries ---------------------------------------------------------------

TEST_F(TraderTest, QueryWithConstraint) {
  export_host("light", 10.0);
  export_host("heavy", 90.0);
  const auto results = trader_.query("LoadService", "LoadAvg < 50");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "light");
}

TEST_F(TraderTest, QueryUnknownTypeThrows) {
  EXPECT_THROW(trader_.query("NoType", ""), UnknownServiceType);
}

TEST_F(TraderTest, QueryBadConstraintThrows) {
  EXPECT_THROW(trader_.query("LoadService", "LoadAvg <"), IllegalConstraint);
}

TEST_F(TraderTest, QueryMinPreferenceOrders) {
  export_host("c", 30.0);
  export_host("a", 10.0);
  export_host("b", 20.0);
  const auto results = trader_.query("LoadService", "", "min LoadAvg");
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "a");
  EXPECT_EQ(results[1].properties.at("Host").as_string(), "b");
  EXPECT_EQ(results[2].properties.at("Host").as_string(), "c");
}

TEST_F(TraderTest, QueryMaxPreferenceOrders) {
  export_host("a", 10.0);
  export_host("b", 20.0);
  const auto results = trader_.query("LoadService", "", "max LoadAvg");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "b");
}

TEST_F(TraderTest, QueryWithPreferencePutsMatchesFirst) {
  export_host("busy", 80.0);
  export_host("idle", 5.0);
  const auto results = trader_.query("LoadService", "", "with LoadAvg < 50");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "idle");
  EXPECT_EQ(results[1].properties.at("Host").as_string(), "busy");
}

TEST_F(TraderTest, QueryFirstPreferenceKeepsRegistrationOrder) {
  export_host("one", 50.0);
  export_host("two", 10.0);
  const auto results = trader_.query("LoadService", "");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "one");
}

TEST_F(TraderTest, QueryUnscorableOffersGoLast) {
  // An offer without the preference property sorts after scored ones.
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("noload"));
  props["Arch"] = OfferedProperty(Value("x86"));
  trader_.export_offer("LoadService", provider, props);
  export_host("scored", 25.0);
  const auto results = trader_.query("LoadService", "", "min LoadAvg");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "scored");
  EXPECT_EQ(results[1].properties.at("Host").as_string(), "noload");
}

TEST_F(TraderTest, QueryRandomPreferenceIsDeterministicPerSeed) {
  for (int i = 0; i < 8; ++i) export_host("h" + std::to_string(i), i);
  auto orb2 = Orb::create();
  Trader other(orb2, {.name = "t-same-seed"});
  ServiceTypeDef type;
  type.name = "LoadService";
  type.properties = {{"Host", "string", PropertyDef::Mode::Normal}};
  other.types().add(type);
  // Same seed, same offers => same shuffle order.
  auto servant = FunctionServant::make("");
  for (int i = 0; i < 8; ++i) {
    PropertyMap props;
    props["Host"] = OfferedProperty(Value("h" + std::to_string(i)));
    other.export_offer("LoadService", orb2->register_servant(servant, "s" + std::to_string(i)),
                       props);
  }
  const auto r1 = trader_.query("LoadService", "", "random");
  const auto r2 = other.query("LoadService", "", "random");
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].properties.at("Host").as_string(), r2[i].properties.at("Host").as_string());
  }
}

TEST_F(TraderTest, ReturnCardLimitsResults) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  LookupPolicies policies;
  policies.return_card = 3;
  EXPECT_EQ(trader_.query("LoadService", "", "", {}, policies).size(), 3u);
}

TEST_F(TraderTest, SearchCardLimitsConsideration) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  LookupPolicies policies;
  policies.search_card = 4;
  // Only the first 4 registered offers are considered at all.
  const auto results = trader_.query("LoadService", "LoadAvg >= 0", "", {}, policies);
  EXPECT_EQ(results.size(), 4u);
}

TEST_F(TraderTest, DesiredPropertiesFilterReturnedProps) {
  export_host("node", 5.0);
  const auto results = trader_.query("LoadService", "", "", {"Host"});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].properties.size(), 1u);
  EXPECT_EQ(results[0].properties.count("Host"), 1u);
}

// ---- dynamic properties ----------------------------------------------------

TEST_F(TraderTest, DynamicPropertyEvaluatedAtLookup) {
  auto load = std::make_shared<double>(75.0);
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [load](const ValueList&) { return Value(*load); });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);

  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("dyn"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", provider, props);

  EXPECT_EQ(trader_.query("LoadService", "LoadAvg < 50").size(), 0u);
  *load = 20.0;  // live value changes; next lookup sees it
  const auto results = trader_.query("LoadService", "LoadAvg < 50");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].properties.at("LoadAvg").as_number(), 20.0);
}

TEST_F(TraderTest, DynamicPropertyReceivesNameAndExtra) {
  ValueList captured;
  auto evaluator = FunctionServant::make("DynamicPropEval");
  auto capture = std::make_shared<ValueList>();
  evaluator->on("evalDP", [capture](const ValueList& args) {
    *capture = args;
    return Value(1.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value("extra-data")});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  trader_.query("LoadService", "LoadAvg > 0");
  ASSERT_EQ(capture->size(), 2u);
  EXPECT_EQ((*capture)[0].as_string(), "LoadAvg");
  EXPECT_EQ((*capture)[1].as_string(), "extra-data");
}

TEST_F(TraderTest, DynamicPropertyCachedWithinOneQuery) {
  auto calls = std::make_shared<int>(0);
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [calls](const ValueList&) {
    ++*calls;
    return Value(10.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  // Constraint + min preference + returned props all touch LoadAvg.
  trader_.query("LoadService", "LoadAvg < 50", "min LoadAvg");
  EXPECT_EQ(*calls, 1) << "one evalDP per offer per query";
}

TEST_F(TraderTest, UseDynamicPropertiesPolicyOff) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  auto calls = std::make_shared<int>(0);
  evaluator->on("evalDP", [calls](const ValueList&) {
    ++*calls;
    return Value(10.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  LookupPolicies policies;
  policies.use_dynamic_properties = false;
  EXPECT_EQ(trader_.query("LoadService", "LoadAvg < 50", "", {}, policies).size(), 0u)
      << "dynamic property treated as undefined";
  EXPECT_EQ(*calls, 0);
}

TEST_F(TraderTest, FailingDynamicPropertyMeansUndefined) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [](const ValueList&) -> Value { throw Error("down"); });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  EXPECT_EQ(trader_.query("LoadService", "LoadAvg < 50").size(), 0u);
  EXPECT_EQ(trader_.query("LoadService", "not exist LoadAvg").size(), 1u);
}

// ---- federation -----------------------------------------------------------

TEST_F(TraderTest, FederatedQueryMergesRemoteOffers) {
  auto orb2 = Orb::create();
  Trader remote(orb2, {.name = "t2"});
  ServiceTypeDef type;
  type.name = "LoadService";
  type.properties = {{"LoadAvg", "number", PropertyDef::Mode::Normal},
                     {"Host", "string", PropertyDef::Mode::Normal}};
  remote.types().add(type);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("remote-host"));
  props["LoadAvg"] = OfferedProperty(Value(5.0));
  remote.export_offer("LoadService", orb2->register_servant(servant), props);

  export_host("local-host", 10.0);
  trader_.add_link("to-t2", remote.lookup_ref());
  const auto results = trader_.query("LoadService", "LoadAvg < 50");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "local-host");
  EXPECT_EQ(results[1].properties.at("Host").as_string(), "remote-host");
}

TEST_F(TraderTest, HopCountZeroStaysLocal) {
  auto orb2 = Orb::create();
  Trader remote(orb2, {.name = "t3"});
  ServiceTypeDef type;
  type.name = "LoadService";
  remote.types().add(type);
  auto servant = FunctionServant::make("");
  remote.export_offer("LoadService", orb2->register_servant(servant), {});
  trader_.add_link("to-t3", remote.lookup_ref());
  export_host("local", 1.0);
  LookupPolicies policies;
  policies.hop_count = 0;
  EXPECT_EQ(trader_.query("LoadService", "", "", {}, policies).size(), 1u);
}

TEST_F(TraderTest, LinkCyclesTerminate) {
  auto orb2 = Orb::create();
  Trader other(orb2, {.name = "t4"});
  ServiceTypeDef type;
  type.name = "LoadService";
  type.properties = {{"LoadAvg", "number", PropertyDef::Mode::Normal},
                     {"Host", "string", PropertyDef::Mode::Normal},
                     {"Arch", "string", PropertyDef::Mode::Normal}};
  other.types().add(type);
  trader_.add_link("a", other.lookup_ref());
  other.add_link("b", trader_.lookup_ref());
  export_host("only", 1.0);
  LookupPolicies policies;
  policies.hop_count = 3;
  const auto results = trader_.query("LoadService", "", "", {}, policies);
  EXPECT_EQ(results.size(), 1u) << "cycle bounded by hop_count, offer deduplicated";
}

TEST_F(TraderTest, DeadLinkIsSkipped) {
  trader_.add_link("dead", ObjectRef{"inproc://no-such-trader", "x", ""});
  export_host("local", 1.0);
  EXPECT_EQ(trader_.query("LoadService", "").size(), 1u);
}

// ---- remote access through servants -----------------------------------------

TEST_F(TraderTest, RemoteClientRoundtrip) {
  export_host("via-servant", 7.0);
  auto client_orb = Orb::create();
  TraderClient client(client_orb, trader_.lookup_ref(), trader_.register_ref());
  const auto results = client.query("LoadService", "LoadAvg < 10", "min LoadAvg");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "via-servant");
  EXPECT_EQ(results[0].service_type, "LoadService");
  EXPECT_FALSE(results[0].provider.empty());
}

TEST_F(TraderTest, RemoteExportAndWithdraw) {
  auto client_orb = Orb::create();
  TraderClient client(client_orb, trader_.lookup_ref(), trader_.register_ref());
  auto servant = FunctionServant::make("");
  const ObjectRef provider = client_orb->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("remote-reg"));
  props["Arch"] = OfferedProperty(Value("riscv"));
  props["LoadAvg"] = OfferedProperty(Value(3.0));
  const std::string id = client.export_offer("LoadService", provider, props);
  EXPECT_EQ(trader_.offer_count(), 1u);
  client.modify(id, {{"LoadAvg", OfferedProperty(Value(8.0))}});
  EXPECT_DOUBLE_EQ(trader_.describe(id).properties.at("LoadAvg").static_value().as_number(),
                   8.0);
  client.withdraw(id);
  EXPECT_EQ(trader_.offer_count(), 0u);
}

TEST_F(TraderTest, RemoteExportOfDynamicProperty) {
  auto client_orb = Orb::create();
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [](const ValueList&) { return Value(4.0); });
  const ObjectRef eval_ref = client_orb->register_servant(evaluator);
  TraderClient client(client_orb, trader_.lookup_ref(), trader_.register_ref());
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  client.export_offer("LoadService", client_orb->register_servant(servant), props);
  const auto results = trader_.query("LoadService", "LoadAvg == 4");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].properties.at("LoadAvg").as_number(), 4.0);
}

// ---- Admin interface --------------------------------------------------

TEST_F(TraderTest, AdminClampsReturnCard) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  TraderAdminSettings admin;
  admin.max_return_card = 4;
  trader_.set_admin(admin);
  LookupPolicies policies;
  policies.return_card = 100;  // importer asks for more than allowed
  EXPECT_EQ(trader_.query("LoadService", "", "", {}, policies).size(), 4u);
}

TEST_F(TraderTest, AdminClampsSearchCard) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  TraderAdminSettings admin;
  admin.max_search_card = 3;
  trader_.set_admin(admin);
  EXPECT_EQ(trader_.query("LoadService", "LoadAvg >= 0").size(), 3u);
}

TEST_F(TraderTest, AdminDisablesDynamicProperties) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  auto calls = std::make_shared<int>(0);
  evaluator->on("evalDP", [calls](const ValueList&) {
    ++*calls;
    return Value(1.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  TraderAdminSettings admin;
  admin.supports_dynamic_properties = false;
  trader_.set_admin(admin);
  EXPECT_EQ(trader_.query("LoadService", "LoadAvg > 0").size(), 0u);
  EXPECT_EQ(*calls, 0) << "globally disabled: no evalDP callbacks";
}

TEST_F(TraderTest, AdminClampsHopCount) {
  auto orb2 = Orb::create();
  Trader remote(orb2, {.name = "t-admin-remote"});
  ServiceTypeDef type;
  type.name = "LoadService";
  remote.types().add(type);
  auto servant = FunctionServant::make("");
  remote.export_offer("LoadService", orb2->register_servant(servant), {});
  trader_.add_link("r", remote.lookup_ref());
  TraderAdminSettings admin;
  admin.max_hop_count = 0;  // federation disabled
  trader_.set_admin(admin);
  export_host("local", 1.0);
  LookupPolicies policies;
  policies.hop_count = 5;
  EXPECT_EQ(trader_.query("LoadService", "", "", {}, policies).size(), 1u)
      << "remote offer not consulted";
}

TEST_F(TraderTest, DynamicEvalCounter) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [](const ValueList&) { return Value(1.0); });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  const uint64_t before = trader_.dynamic_evals();
  trader_.query("LoadService", "LoadAvg > 0");
  EXPECT_EQ(trader_.dynamic_evals(), before + 1);
}

// ---- lookup policies from the wire ------------------------------------

TEST_F(TraderTest, RemotePolicyCountsAreBounded) {
  for (int i = 0; i < 5; ++i) export_host("h" + std::to_string(i), i);
  auto client_orb = Orb::create();
  auto query_with = [&](const char* policy, double value) {
    auto policies = Table::make();
    policies->set(Value(policy), Value(value));
    return client_orb->invoke(trader_.lookup_ref(), "query",
                              {Value("LoadService"), Value(""), Value(""),
                               Value(Table::make()), Value(std::move(policies))});
  };
  for (const char* policy : {"search_card", "return_card", "hop_count"}) {
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      try {
        query_with(policy, bad);
        FAIL() << policy << "=" << bad << " accepted";
      } catch (const orb::RemoteError& e) {
        EXPECT_NE(std::string(e.what()).find(policy), std::string::npos) << e.what();
      }
    }
    // Beyond the type's range: clamped, then the Admin limits apply.
    const Value huge = query_with(policy, 1e300);
    ASSERT_TRUE(huge.is_table()) << policy;
    EXPECT_EQ(huge.as_table()->length(), 5) << policy;
  }
  TraderAdminSettings admin;
  admin.max_return_card = 2;
  trader_.set_admin(admin);
  EXPECT_EQ(query_with("return_card", 1e300).as_table()->length(), 2);
}

// ---- the offer index ---------------------------------------------------

/// A leased store with a subtype and an unrelated type, on a simulated
/// clock, for the behaviour the per-type offer index must keep.
class TraderIndexTest : public ::testing::Test {
 protected:
  TraderIndexTest()
      : clock_(std::make_shared<SimClock>()),
        orb_(Orb::create()),
        trader_(orb_, {.name = "index", .clock = clock_}) {
    ServiceTypeDef base;
    base.name = "Svc";
    base.properties = {{"Rank", "number", PropertyDef::Mode::Normal}};
    trader_.types().add(base);
    ServiceTypeDef sub;
    sub.name = "FastSvc";
    sub.supertypes = {"Svc"};
    trader_.types().add(sub);
    ServiceTypeDef other;
    other.name = "Other";
    other.properties = {{"Rank", "number", PropertyDef::Mode::Normal}};
    trader_.types().add(other);
    provider_ = orb_->register_servant(FunctionServant::make("Svc"));
  }

  std::string offer(const std::string& type, double rank, double lease = 0,
                    const ObjectRef& provider = {}) {
    PropertyMap props;
    props["Rank"] = OfferedProperty(Value(rank));
    return trader_.export_offer(type, provider.empty() ? provider_ : provider, props, lease);
  }

  std::vector<std::string> ids(const std::string& type, const std::string& constraint = "",
                               const std::string& preference = "",
                               const LookupPolicies& policies = {}) {
    std::vector<std::string> out;
    for (const OfferInfo& info : trader_.query(type, constraint, preference, {}, policies)) {
      out.push_back(info.offer_id);
    }
    return out;
  }

  std::shared_ptr<SimClock> clock_;
  OrbPtr orb_;
  Trader trader_;
  ObjectRef provider_;
};

TEST_F(TraderIndexTest, FirstKeepsRegistrationOrderAcrossSubtypes) {
  const std::string b0 = offer("Svc", 1);
  const std::string s0 = offer("FastSvc", 2);
  offer("Other", 3);
  const std::string b1 = offer("Svc", 4);
  const std::string s1 = offer("FastSvc", 5);
  EXPECT_EQ(ids("Svc"), (std::vector<std::string>{b0, s0, b1, s1}));
  EXPECT_EQ(ids("Svc", "", "first"), (std::vector<std::string>{b0, s0, b1, s1}));
  LookupPolicies three;
  three.return_card = 3;
  EXPECT_EQ(ids("Svc", "Rank > 1", "first", three), (std::vector<std::string>{s0, b1, s1}));
  LookupPolicies exact;
  exact.exact_type_match = true;
  EXPECT_EQ(ids("Svc", "", "", exact), (std::vector<std::string>{b0, b1}));
  EXPECT_EQ(ids("FastSvc"), (std::vector<std::string>{s0, s1}));
}

TEST_F(TraderIndexTest, SearchCardTakesTheFirstLiveCandidatesAcrossSubtypes) {
  const std::string b0 = offer("Svc", 1);
  const std::string s0 = offer("FastSvc", 2, /*lease=*/10);
  const std::string b1 = offer("Svc", 3);
  const std::string s1 = offer("FastSvc", 4);
  offer("Svc", 5);
  LookupPolicies policies;
  policies.search_card = 3;
  // Ordered by preference, but drawn only from the first three registered.
  EXPECT_EQ(ids("Svc", "", "max Rank", policies), (std::vector<std::string>{b1, s0, b0}));
  clock_->advance(20);  // s0's lease runs out: the next live offer takes its place
  EXPECT_EQ(ids("Svc", "", "max Rank", policies), (std::vector<std::string>{s1, b1, b0}));
}

TEST_F(TraderIndexTest, ExpiryPurgeAndProviderWithdrawalKeepEveryViewConsistent) {
  const ObjectRef other_provider = orb_->register_servant(FunctionServant::make("Svc"));
  const std::string keep = offer("Svc", 1);
  const std::string leased = offer("FastSvc", 2, /*lease=*/10);
  const std::string mine = offer("Svc", 3, 0, other_provider);
  const std::string mine_sub = offer("FastSvc", 4, 0, other_provider);
  clock_->advance(20);
  EXPECT_EQ(ids("Svc"), (std::vector<std::string>{keep, mine, mine_sub}))
      << "expired offers never match";
  EXPECT_EQ(trader_.offer_count(), 4u) << "expired offers are purged lazily";

  EXPECT_EQ(trader_.purge_expired(), 1u);
  EXPECT_EQ(trader_.list_offers(), (std::vector<std::string>{keep, mine, mine_sub}));
  EXPECT_THROW((void)trader_.describe(leased), UnknownOffer);

  EXPECT_EQ(trader_.withdraw_provider(other_provider), 2u);
  EXPECT_EQ(trader_.list_offers(), (std::vector<std::string>{keep}));
  EXPECT_THROW((void)trader_.describe(mine_sub), UnknownOffer);
  EXPECT_EQ(ids("Svc"), (std::vector<std::string>{keep}));
  EXPECT_TRUE(ids("FastSvc").empty());
  EXPECT_EQ(trader_.describe(keep).sequence, 0u);

  // The emptied type takes offers again, after the surviving one.
  const std::string fresh = offer("FastSvc", 5);
  EXPECT_EQ(ids("Svc"), (std::vector<std::string>{keep, fresh}));
  EXPECT_THROW(trader_.withdraw(leased), UnknownOffer);
}

TEST_F(TraderIndexTest, ModifyAndRefreshKeepRegistrationPosition) {
  const std::string a = offer("Svc", 1, /*lease=*/10);
  const std::string b = offer("FastSvc", 2);
  const std::string c = offer("Svc", 3);
  trader_.modify(a, {{"Rank", OfferedProperty(Value(9.0))}});
  trader_.refresh(a, 100);
  trader_.modify(c, {{"Rank", OfferedProperty(Value(0.0))}});
  EXPECT_EQ(ids("Svc"), (std::vector<std::string>{a, b, c}));
  EXPECT_EQ(ids("Svc", "", "max Rank"), (std::vector<std::string>{a, b, c}));
  EXPECT_DOUBLE_EQ(trader_.describe(a).properties.at("Rank").static_value().as_number(), 9.0);
  clock_->advance(50);  // past the first lease, inside the refreshed one
  EXPECT_EQ(ids("Svc"), (std::vector<std::string>{a, b, c}));
}

TEST_F(TraderIndexTest, UnreturnedOffersAreNotMaterialised) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [](const ValueList&) { return Value(1.0); });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  for (int i = 0; i < 6; ++i) {
    PropertyMap props;
    props["Rank"] = OfferedProperty(Value(static_cast<double>(i)));
    props["Load"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
    trader_.export_offer(i % 2 == 0 ? "Svc" : "FastSvc", provider_, props);
  }
  LookupPolicies one;
  one.return_card = 1;
  // Every offer matches and is ordered, but only the returned one has its
  // dynamic property resolved (desired is empty: all properties).
  for (const char* preference : {"", "first", "max Rank", "min Rank", "with Rank > 2"}) {
    const uint64_t before = trader_.dynamic_evals();
    const auto results = trader_.query("Svc", "Rank >= 0", preference, {}, one);
    ASSERT_EQ(results.size(), 1u) << preference;
    EXPECT_EQ(results[0].properties.count("Load"), 1u) << preference;
    EXPECT_EQ(trader_.dynamic_evals(), before + 1) << preference;
  }
}

TEST_F(TraderIndexTest, QueriesRaceModifyRefreshAndWithdraw) {
  std::vector<std::string> stable;
  for (int i = 0; i < 20; ++i) stable.push_back(offer(i % 2 == 0 ? "Svc" : "FastSvc", i));
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      LookupPolicies policies;
      policies.return_card = r == 0 ? 5 : 100;
      while (!stop.load()) {
        const auto results = trader_.query("Svc", "Rank >= 0", r == 0 ? "max Rank" : "",
                                           {}, policies);
        // The 20 stable offers always match; churned ones may come and go.
        if (results.size() < std::min<size_t>(policies.return_card, 20)) ++bad;
        for (const OfferInfo& info : results) {
          if (info.properties.count("Rank") == 0) ++bad;
        }
      }
    });
  }
  for (int i = 0; i < 300; ++i) {
    const std::string& id = stable[static_cast<size_t>(i) % stable.size()];
    trader_.modify(id, {{"Rank", OfferedProperty(Value(static_cast<double>(i)))}});
    trader_.refresh(id, 0);
    trader_.withdraw(offer(i % 2 == 0 ? "FastSvc" : "Svc", i));
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(trader_.offer_count(), stable.size());
  EXPECT_EQ(ids("Svc").size(), stable.size());
}

}  // namespace
}  // namespace adapt::trading
