// Baseline proxies ([20]-style static selection, round-robin, random) and
// the interceptor-based adaptation path (paper SVI future work, X1).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/baseline_proxy.h"
#include "core/infrastructure.h"
#include "core/interceptor.h"

namespace adapt::core {
namespace {

using orb::FunctionServant;

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() {
    trading::ServiceTypeDef type;
    type.name = "HelloService";
    infra_.trader().types().add(type);
  }

  ObjectRef deploy(const std::string& host) {
    auto servant = FunctionServant::make("Hello");
    servant->on("whoami", [host](const ValueList&) { return Value(host); });
    return infra_.deploy_server(host, "HelloService", servant);
  }

  Infrastructure infra_{InfrastructureOptions{.name = "bl" + std::to_string(counter_++)}};
  static int counter_;
};

int BaselineTest::counter_ = 0;

TEST_F(BaselineTest, StaticProxySelectsBestOnce) {
  deploy("host-a");
  deploy("host-b");
  infra_.host("host-a")->set_background_jobs(50.0);
  infra_.run_for(600.0);
  StaticSelectionProxy proxy(infra_.make_orb("static-client"), infra_.lookup_ref(),
                             "HelloService", "", "min LoadAvg");
  ASSERT_TRUE(proxy.select());
  EXPECT_EQ(proxy.invoke("whoami").as_string(), "host-b");

  // Load flips: the paper's point — the static proxy never reconsiders.
  infra_.host("host-a")->set_background_jobs(0.0);
  infra_.host("host-b")->set_background_jobs(90.0);
  infra_.run_for(1200.0);
  EXPECT_EQ(proxy.invoke("whoami").as_string(), "host-b")
      << "static selection sticks with its original choice";
}

TEST_F(BaselineTest, StaticProxyNoOffers) {
  StaticSelectionProxy proxy(infra_.make_orb("static-empty"), infra_.lookup_ref(),
                             "HelloService");
  EXPECT_FALSE(proxy.select());
  EXPECT_THROW(proxy.invoke("whoami"), Error);
}

TEST_F(BaselineTest, RoundRobinCyclesProviders) {
  deploy("host-a");
  deploy("host-b");
  deploy("host-c");
  RoundRobinProxy proxy(infra_.make_orb("rr-client"), infra_.lookup_ref(), "HelloService");
  EXPECT_EQ(proxy.provider_count(), 3u);
  std::map<std::string, int> hits;
  for (int i = 0; i < 9; ++i) ++hits[proxy.invoke("whoami").as_string()];
  EXPECT_EQ(hits["host-a"], 3);
  EXPECT_EQ(hits["host-b"], 3);
  EXPECT_EQ(hits["host-c"], 3);
}

TEST_F(BaselineTest, RandomProxyCoversProviders) {
  deploy("host-a");
  deploy("host-b");
  RandomProxy proxy(infra_.make_orb("rnd-client"), infra_.lookup_ref(), "HelloService");
  std::map<std::string, int> hits;
  for (int i = 0; i < 60; ++i) ++hits[proxy.invoke("whoami").as_string()];
  EXPECT_GT(hits["host-a"], 10);
  EXPECT_GT(hits["host-b"], 10);
}

TEST_F(BaselineTest, EmptyProviderListThrows) {
  RoundRobinProxy rr(infra_.make_orb("rr-empty"), infra_.lookup_ref(), "HelloService");
  EXPECT_THROW(rr.invoke("whoami"), Error);
  RandomProxy rnd(infra_.make_orb("rnd-empty"), infra_.lookup_ref(), "HelloService");
  EXPECT_THROW(rnd.invoke("whoami"), Error);
}

// ---- interceptors (X1) ------------------------------------------------------

TEST_F(BaselineTest, RebindInterceptorRoutesToBestOffer) {
  deploy("host-a");
  deploy("host-b");
  infra_.host("host-a")->set_background_jobs(50.0);
  infra_.run_for(600.0);

  auto client_orb = infra_.make_orb("icp-client");
  InterceptedCaller caller(client_orb);
  auto rebind = std::make_shared<RebindInterceptor>(client_orb, infra_.lookup_ref(),
                                                    "HelloService", "", "min LoadAvg");
  caller.add(rebind);
  // The application calls a fixed (even empty) reference — the interceptor
  // supplies the real target, as with CORBA portable interceptors.
  EXPECT_EQ(caller.invoke(ObjectRef{"inproc://ignored", "x", ""}, "whoami").as_string(),
            "host-b");

  // Loads flip; application code signals reselection.
  infra_.host("host-a")->set_background_jobs(0.0);
  infra_.host("host-b")->set_background_jobs(90.0);
  infra_.run_for(1200.0);
  rebind->reselect();
  EXPECT_EQ(caller.invoke(ObjectRef{"inproc://ignored", "x", ""}, "whoami").as_string(),
            "host-a");
  EXPECT_GE(rebind->rebinds(), 2u);
}

TEST_F(BaselineTest, RebindInterceptorFailsOverOnError) {
  const ObjectRef a = deploy("host-a");
  deploy("host-b");
  auto client_orb = infra_.make_orb("icp-fo-client");
  InterceptedCaller caller(client_orb);
  auto rebind = std::make_shared<RebindInterceptor>(client_orb, infra_.lookup_ref(),
                                                    "HelloService", "", "min LoadAvg");
  caller.add(rebind);
  const std::string first = caller.invoke(ObjectRef{}, "whoami").as_string();
  // Kill whichever server is bound; the next call must land on the other.
  infra_.host_orb(first)->unregister_servant(
      first == "host-a" ? a.object_id : rebind->current().object_id);
  const std::string second = caller.invoke(ObjectRef{}, "whoami").as_string();
  EXPECT_NE(second, first);
}

TEST_F(BaselineTest, TracingInterceptorObservesCalls) {
  deploy("host-a");
  auto client_orb = infra_.make_orb("icp-trace-client");
  InterceptedCaller caller(client_orb);
  auto rebind = std::make_shared<RebindInterceptor>(client_orb, infra_.lookup_ref(),
                                                    "HelloService");
  auto trace = std::make_shared<TracingInterceptor>();
  caller.add(rebind);
  caller.add(trace);
  caller.invoke(ObjectRef{}, "whoami");
  caller.invoke(ObjectRef{}, "whoami");
  EXPECT_EQ(trace->calls(), 2u);
  EXPECT_EQ(trace->replies(), 2u);
  EXPECT_EQ(trace->operations(), (std::vector<std::string>{"whoami", "whoami"}));
}

TEST_F(BaselineTest, InterceptorNoComponentThrows) {
  auto client_orb = infra_.make_orb("icp-none-client");
  InterceptedCaller caller(client_orb);
  caller.add(std::make_shared<RebindInterceptor>(client_orb, infra_.lookup_ref(),
                                                 "HelloService"));
  EXPECT_THROW(caller.invoke(ObjectRef{}, "whoami"), Error);
}

TEST(InterceptorFailoverGateTest, PostSendTimeoutFailsOverOnlyWhenIdempotent) {
  Infrastructure infra(InfrastructureOptions{.name = "icp-gate"});
  trading::ServiceTypeDef type;
  type.name = "Svc";
  infra.trader().types().add(type);

  // A TCP replica that stalls past the client's request timeout, so the
  // request is fully written when it fails (maybe_executed), exported first
  // so the interceptor binds it; then a fast in-process replica.
  auto server = orb::Orb::create(orb::OrbConfig{.name = "icp-gate-srv", .listen_tcp = true});
  std::atomic<int> slow_submits{0};
  auto slow = FunctionServant::make("Svc");
  slow->on("getvalue", [](const ValueList&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    return Value("slow");
  });
  slow->on("submit", [&slow_submits](const ValueList&) {
    ++slow_submits;
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    return Value("slow");
  });
  infra.trader().export_offer("Svc", server->register_servant(slow), {});
  std::atomic<int> fast_submits{0};
  auto fast = FunctionServant::make("Svc");
  fast->on("getvalue", [](const ValueList&) { return Value("fast"); });
  fast->on("submit", [&fast_submits](const ValueList&) {
    ++fast_submits;
    return Value("fast");
  });
  auto fast_orb = infra.make_orb("icp-gate-fast");
  infra.trader().export_offer("Svc", fast_orb->register_servant(fast), {});

  auto client = orb::Orb::create(orb::OrbConfig{.name = "icp-gate-cli", .request_timeout = 0.2});
  auto caller_with_rebind = [&] {
    auto caller = std::make_unique<InterceptedCaller>(client);
    caller->add(std::make_shared<RebindInterceptor>(client, infra.trader().lookup_ref(), "Svc"));
    return caller;
  };

  // Non-idempotent: the slow replica may be running it, so no failover.
  auto caller = caller_with_rebind();
  try {
    caller->invoke(ObjectRef{}, "submit");
    FAIL() << "expected the post-send timeout to propagate";
  } catch (const orb::TransportError& e) {
    EXPECT_TRUE(e.maybe_executed());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_EQ(slow_submits.load(), 1);
  EXPECT_EQ(fast_submits.load(), 0) << "submit was run a second time";

  // Idempotent: re-running it elsewhere is safe, so the call fails over.
  EXPECT_EQ(caller_with_rebind()->invoke(ObjectRef{}, "getvalue").as_string(), "fast");
  server->shutdown();
}

}  // namespace
}  // namespace adapt::core
