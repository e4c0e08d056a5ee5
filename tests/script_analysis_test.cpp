// Static analyzer tests: the seeded-defect corpus (one case per diagnostic
// code), capability-policy enforcement at the ingestion points (monitor /
// agent / smart-proxy), and the obs-side rejection record.
#include "script/analysis/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "core/service_agent.h"
#include "monitor/monitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orb/orb.h"
#include "script/analysis/policy.h"
#include "script/engine.h"
#include "trading/script_bindings.h"

namespace adapt::script::analysis {
namespace {

bool has_code(const std::vector<Diagnostic>& diags, const std::string& code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic* find_code(const std::vector<Diagnostic>& diags, const std::string& code) {
  for (const auto& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---- seeded-defect corpus --------------------------------------------------
// One case per diagnostic code: the analyzer must flag each defect with the
// right code and severity, at the right line.

struct SeededDefect {
  const char* name;
  const char* source;
  const char* code;      // expected diagnostic code
  Severity severity;
  int line;              // expected diagnostic line
};

// Prints the case name rather than gtest's byte dump of the struct, which
// holds string addresses and so changes from one run to the next.
void PrintTo(const SeededDefect& d, std::ostream* os) { *os << d.name; }

class SeededDefectTest : public ::testing::TestWithParam<SeededDefect> {};

TEST_P(SeededDefectTest, Flagged) {
  const SeededDefect& param = GetParam();
  ScriptEngine engine;
  const auto diags = engine.analyze(param.source, "=test");
  const Diagnostic* d = find_code(diags, param.code);
  ASSERT_NE(d, nullptr) << "expected a '" << param.code << "' diagnostic";
  EXPECT_EQ(d->severity, param.severity);
  EXPECT_EQ(d->line, param.line);
  EXPECT_GT(d->col, 0) << "diagnostics carry a column";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SeededDefectTest,
    ::testing::Values(
        SeededDefect{"UndefinedGlobal", "return frobnicate", codes::kUndefinedGlobal,
                     Severity::Error, 1},
        SeededDefect{"ArityTooFew", "return string.sub('abc')", codes::kArityMismatch,
                     Severity::Error, 1},
        SeededDefect{"ArityTooMany", "return math.floor(1, 2, 3)", codes::kArityMismatch,
                     Severity::Error, 1},
        SeededDefect{"UseBeforeDecl", "local a = v\nlocal v = 1\nreturn a + v",
                     codes::kUseBeforeDecl, Severity::Warning, 1},
        SeededDefect{"UnusedLocal", "local leftover = 1\nreturn 2", codes::kUnusedLocal,
                     Severity::Warning, 1},
        SeededDefect{"UnusedParam", "f = function(a, b)\nreturn a\nend", codes::kUnusedParam,
                     Severity::Hint, 1},
        SeededDefect{"UnreachableCode",
                     "flag = 1\nif flag then\nreturn 1\nelse\nreturn 2\nend\nprint('never')",
                     codes::kUnreachableCode, Severity::Warning, 7},
        SeededDefect{"NotCallable", "return (42)()", codes::kNotCallable, Severity::Error, 1},
        SeededDefect{"VarargAtTopLevel", "local t = {...}\nreturn t",
                     codes::kVarargOutsideFunction, Severity::Error, 1},
        SeededDefect{"VarargInFixedFunction", "f = function(a)\nreturn ...\nend",
                     codes::kVarargOutsideFunction, Severity::Error, 2},
        SeededDefect{"ParseError", "function(", codes::kParseError, Severity::Error, 1},
        SeededDefect{"ShadowedLocal", "f = function()\nlocal a = 1\nlocal a = 2\nreturn a\nend",
                     codes::kShadowedLocal, Severity::Warning, 3},
        SeededDefect{"DivByZero", "local d = 0\nreturn 1 / d", codes::kDivByZero,
                     Severity::Warning, 2},
        SeededDefect{"DeadStore", "local x = 1\nx = 2\nreturn x", codes::kDeadStore,
                     Severity::Warning, 1},
        SeededDefect{"AlwaysTrueCondition",
                     "local x = 5\nif x > 1 then\nresult = 1\nend\nreturn result",
                     codes::kAlwaysTrueCondition, Severity::Warning, 2}),
    [](const ::testing::TestParamInfo<SeededDefect>& info) { return info.param.name; });

// ---- resolver details ------------------------------------------------------

TEST(AnalyzerTest, CleanChunkHasNoDiagnostics) {
  ScriptEngine engine;
  const auto diags = engine.analyze(R"(
    local total = 0
    for i = 1, 10 do
      total = total + i
    end
    result = tostring(total)
    return result
  )");
  EXPECT_TRUE(diags.empty());
}

TEST(AnalyzerTest, ChunkAssignedGlobalIsDefined) {
  ScriptEngine engine;
  // `counter` is only assigned inside a function that runs later; reading it
  // elsewhere in the chunk must not be an undefined-global error.
  const auto diags = engine.analyze(
      "bump = function() counter = (counter or 0) + 1 end\nreturn counter");
  EXPECT_FALSE(has_errors(diags));
}

TEST(AnalyzerTest, EngineGlobalsAreKnown) {
  ScriptEngine engine;
  engine.set_global("injected", Value(7.0));
  EXPECT_FALSE(has_errors(engine.analyze("return injected + 1")));
  EXPECT_TRUE(has_errors(engine.analyze("return not_injected + 1")));
}

TEST(AnalyzerTest, ShadowingLocalSuppressesArityCheck) {
  ScriptEngine engine;
  const auto diags = engine.analyze(R"(
    local math = {floor = function(a, b) return a end}
    return math.floor(1, 2, 3)
  )");
  EXPECT_FALSE(has_code(diags, codes::kArityMismatch));
}

TEST(AnalyzerTest, ExpandableLastArgumentRelaxesArity) {
  ScriptEngine engine;
  // A trailing call may expand to any number of values: not provably wrong.
  EXPECT_FALSE(has_errors(engine.analyze(
      "parts = function() return 'a', 1 end\nreturn string.sub(parts())")));
}

TEST(AnalyzerTest, MethodCallsAreNotArityChecked) {
  ScriptEngine engine;
  engine.set_global("obj", Value(Table::make()));
  EXPECT_FALSE(has_errors(engine.analyze("return obj:anything(1, 2, 3, 4, 5)")));
}

TEST(AnalyzerTest, VarargInsideVarargFunctionIsFine) {
  ScriptEngine engine;
  EXPECT_FALSE(has_errors(engine.analyze("f = function(...) return arg end\nreturn f")));
}

TEST(AnalyzerTest, DiagnosticsOrderedByPosition) {
  ScriptEngine engine;
  const auto diags = engine.analyze("x = nosuch1\ny = nosuch2");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_LT(diags[0].line, diags[1].line);
}

TEST(AnalyzerTest, ParseErrorCarriesPosition) {
  ScriptEngine engine;
  const auto diags = engine.analyze("return 1 +");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, codes::kParseError);
  EXPECT_EQ(diags[0].severity, Severity::Error);
  EXPECT_GT(diags[0].line, 0);
}

TEST(AnalyzerTest, ShadowedLocalFromEnclosingBlockWarned) {
  ScriptEngine engine;
  const auto diags = engine.analyze(
      "f = function()\n"
      "local a = 1\n"
      "if a > 0 then\n"
      "local a = 2\n"
      "return a\n"
      "end\n"
      "return a\n"
      "end");
  const Diagnostic* d = find_code(diags, codes::kShadowedLocal);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 4);
  EXPECT_NE(d->message.find("enclosing"), std::string::npos) << d->message;
}

TEST(AnalyzerTest, NestedShadowingReportsEachUnusedLocalExactlyOnce) {
  ScriptEngine engine;
  // Outer and inner `a` are both unused: one unused-local each, no
  // duplicates from the shadowing bookkeeping.
  const auto diags = engine.analyze(
      "f = function(flag)\n"
      "local a = 1\n"
      "if flag then\n"
      "local a = 2\n"
      "end\n"
      "end");
  const auto unused = std::count_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.code == codes::kUnusedLocal;
  });
  EXPECT_EQ(unused, 2);
  EXPECT_TRUE(has_code(diags, codes::kShadowedLocal));
}

TEST(AnalyzerTest, ShadowingRedeclarationKeepsUnusedLocalFinding) {
  ScriptEngine engine;
  // The first `a` is never read before being redeclared: the scope-map
  // overwrite must not swallow its unused-local finding.
  const auto diags = engine.analyze(
      "f = function()\nlocal a = 1\nlocal a = 2\nreturn a\nend");
  EXPECT_TRUE(has_code(diags, codes::kShadowedLocal));
  const Diagnostic* unused = find_code(diags, codes::kUnusedLocal);
  ASSERT_NE(unused, nullptr);
  EXPECT_EQ(unused->line, 2) << "the overwritten declaration is the unused one";
}

// ---- capability policies ---------------------------------------------------

TEST(PolicyTest, MonitorPolicyRefusesPrivilegedNamespaces) {
  ScriptEngine engine;
  // Simulate an engine whose catalog knows the trading bindings.
  engine.natives().declare("trading.query", 1, 4);
  engine.natives().tag("trading", "trading");
  const auto diags = engine.analyze("return trading.query('Svc')", "=mon",
                                    &monitor_policy());
  const Diagnostic* d = find_code(diags, codes::kPolicyViolation);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  // Without a policy the same read is fine.
  EXPECT_FALSE(has_errors(engine.analyze("return trading.query('Svc')")));
}

TEST(PolicyTest, StrategyPolicyAllowsTradingButShellAllowsAll) {
  ScriptEngine engine;
  engine.natives().declare("trading.query", 1, 4);
  engine.natives().tag("trading", "trading");
  EXPECT_FALSE(
      has_errors(engine.analyze("return trading.query('Svc')", "=s", &strategy_policy())));
  EXPECT_FALSE(
      has_errors(engine.analyze("return trading.query('Svc')", "=sh", &shell_policy())));
}

TEST(PolicyTest, MonitorPolicyAllowsObsAndIo) {
  ScriptEngine engine;
  engine.natives().declare("metrics.counter", 1, 2);
  engine.natives().tag("metrics", "obs");
  const auto diags = engine.analyze(
      "readfrom('data.txt')\nreturn metrics.counter('x')", "=mon", &monitor_policy());
  EXPECT_FALSE(has_errors(diags));
}

TEST(PolicyTest, FindPolicyByName) {
  EXPECT_EQ(find_policy("monitor"), &monitor_policy());
  EXPECT_EQ(find_policy("strategy"), &strategy_policy());
  EXPECT_EQ(find_policy("shell"), &shell_policy());
  EXPECT_EQ(find_policy("nope"), nullptr);
}

// ---- enforcement at the ingestion points -----------------------------------

class EnforcementTest : public ::testing::Test {
 protected:
  EnforcementTest()
      : engine_(std::make_shared<ScriptEngine>()), orb_(orb::Orb::create()) {}

  std::shared_ptr<ScriptEngine> engine_;
  orb::OrbPtr orb_;
};

TEST_F(EnforcementTest, MonitorRejectsOverPrivilegedAspect) {
  // The monitor's engine has the trading bindings installed (as an agent
  // engine would); a shipped aspect trying to reach them must be refused
  // *before execution*, with the refusal recorded in obs.
  trading::install_trading_bindings(*engine_, orb_, {});
  auto mon = std::make_shared<monitor::BasicMonitor>("Load", engine_);
  const uint64_t rejected_before = obs::metrics().counter("luma.lint.rejected").value();

  EXPECT_THROW(mon->defineAspect("exfil",
                                 "function(self, v, m) return trading.query('Svc') end"),
               monitor::MonitorError);
  EXPECT_TRUE(mon->definedAspects().empty()) << "nothing installed";
  EXPECT_EQ(obs::metrics().counter("luma.lint.rejected").value(), rejected_before + 1);

  // The rejection is a span event carrying the chunk and diagnostic code.
  const auto spans = obs::default_tracer().recent();
  const auto it = std::find_if(spans.rbegin(), spans.rend(), [](const obs::Span& s) {
    return s.name == "luma.lint.reject";
  });
  ASSERT_NE(it, spans.rend());
  EXPECT_FALSE(it->ok);
  bool saw_chunk = false;
  for (const auto& [k, v] : it->annotations) {
    if (k == "chunk") {
      saw_chunk = true;
      EXPECT_EQ(v, "aspect:exfil");
    }
  }
  EXPECT_TRUE(saw_chunk);
}

TEST_F(EnforcementTest, MonitorRejectsUndefinedGlobalInAspect) {
  auto mon = std::make_shared<monitor::BasicMonitor>("Load", engine_);
  try {
    mon->defineAspect("typo", "function(self, v, m) return treshold + v end");
    FAIL() << "expected rejection";
  } catch (const monitor::MonitorError& e) {
    EXPECT_NE(std::string(e.what()).find("undefined-global"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("aspect:typo"), std::string::npos) << e.what();
  }
}

TEST_F(EnforcementTest, PaperFig3AspectStillInstalls) {
  // The paper's Fig. 3 "increasing" aspect, verbatim — unused `monitor`
  // param and all — must pass the monitor policy (hints do not reject).
  auto mon = std::make_shared<monitor::BasicMonitor>("LoadAvg", engine_);
  mon->defineAspect("increasing", R"(function(self, currval, monitor)
  if currval[1] > currval[2] then
    return "yes"
  else
    return "no"
  end
end)");
  mon->setvalue(Value(Table::make_array({Value(3.0), Value(1.0), Value(1.0)})));
  EXPECT_EQ(mon->getAspectValue("increasing").as_string(), "yes");
}

TEST_F(EnforcementTest, MonitorRejectsBadPredicate) {
  auto mon = std::make_shared<monitor::EventMonitor>("Load", engine_, orb_);
  const uint64_t rejected_before = obs::metrics().counter("luma.lint.rejected").value();
  EXPECT_THROW(mon->attachEventObserver(ObjectRef{}, "Ev",
                                        "function(o, v, m) return no_such_flag end"),
               monitor::MonitorError);
  EXPECT_EQ(mon->observer_count(), 0u);
  EXPECT_EQ(obs::metrics().counter("luma.lint.rejected").value(), rejected_before + 1);
  // A well-formed predicate still attaches.
  mon->attachEventObserver(ObjectRef{}, "Ev", "function(o, v, m) return v[1] > 50 end");
  EXPECT_EQ(mon->observer_count(), 1u);
}

TEST_F(EnforcementTest, AgentRejectsBadStrategyUploadBeforeExecution) {
  auto timers = std::make_shared<TimerService>(std::make_shared<SimClock>());
  core::ServiceAgent agent(orb_, ObjectRef{}, timers, {});
  const uint64_t rejected_before = obs::metrics().counter("luma.lint.rejected").value();
  // The upload assigns a marker global before tripping the analyzer; since
  // verification precedes execution, the marker must never appear.
  try {
    agent.run_script("marker = 1\nreturn no_such_global");
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("undefined-global"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(agent.engine()->get_global("marker").is_nil())
      << "rejected script must not have run at all";
  EXPECT_EQ(obs::metrics().counter("luma.lint.rejected").value(), rejected_before + 1);

  // An accepted upload runs unchanged.
  agent.run_script("marker = 2");
  EXPECT_DOUBLE_EQ(agent.engine()->get_global("marker").as_number(), 2.0);
}

TEST_F(EnforcementTest, ReinstallServesVerdictFromCacheAndCountsIt) {
  // Monitors re-verify aspect code on every install; the second install of
  // identical code must be served from the engine's verdict cache, visible
  // as a `luma.lint.cache_hit` tick alongside the `luma.lint.analyzed` one.
  auto mon = std::make_shared<monitor::BasicMonitor>("Load", engine_);
  const char* code = "function(self, v, m) return v[1] end";
  const uint64_t analyzed_before = obs::metrics().counter("luma.lint.analyzed").value();
  const uint64_t hits_before = obs::metrics().counter("luma.lint.cache_hit").value();

  mon->defineAspect("first", code);
  EXPECT_EQ(obs::metrics().counter("luma.lint.analyzed").value(), analyzed_before + 1);
  EXPECT_EQ(obs::metrics().counter("luma.lint.cache_hit").value(), hits_before);

  mon->defineAspect("second", code);
  EXPECT_EQ(obs::metrics().counter("luma.lint.analyzed").value(), analyzed_before + 2);
  EXPECT_EQ(obs::metrics().counter("luma.lint.cache_hit").value(), hits_before + 1);
}

TEST_F(EnforcementTest, MonitorRejectsUnboundedAspect) {
  // Aspect evaluators run on the monitor's update hot path: the monitor
  // policy certifies cost, so a provably unbounded loop is refused.
  auto mon = std::make_shared<monitor::BasicMonitor>("Load", engine_);
  try {
    mon->defineAspect("spin", "function(self, v, m)\nwhile true do\nv = v\nend\nend");
    FAIL() << "expected rejection";
  } catch (const monitor::MonitorError& e) {
    EXPECT_NE(std::string(e.what()).find("unbounded-loop"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(mon->definedAspects().empty());
}

TEST_F(EnforcementTest, MonitorRejectsUpdateCodeWithParseError) {
  auto mon = std::make_shared<monitor::BasicMonitor>("Load", engine_);
  try {
    mon->set_update_code("function() return oops(");
    FAIL() << "expected rejection";
  } catch (const monitor::MonitorError& e) {
    EXPECT_NE(std::string(e.what()).find("parse-error"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace adapt::script::analysis
