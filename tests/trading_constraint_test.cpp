// Tests for the OMG trader constraint language and preferences, including a
// parameterized truth-table sweep over representative expressions.
#include "trading/constraint.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>

namespace adapt::trading {
namespace {

/// Fixture property set modeled on the paper's load-sharing offers.
PropertyLookup test_props() {
  auto props = std::make_shared<std::map<std::string, Value>>();
  (*props)["LoadAvg"] = Value(35.0);
  (*props)["LoadAvgIncreasing"] = Value("no");
  (*props)["Host"] = Value("node-7.cluster.local");
  (*props)["Replicas"] = Value(3.0);
  (*props)["Secure"] = Value(true);
  (*props)["Tags"] = Value(Table::make_array({Value("fast"), Value("gpu"), Value(42.0)}));
  return [props](const std::string& name) -> std::optional<Value> {
    const auto it = props->find(name);
    if (it == props->end()) return std::nullopt;
    return it->second;
  };
}

struct TruthCase {
  const char* expr;
  bool expected;
};

// Names each case by its quoted expression, not by gtest's default byte dump,
// which holds the address of `expr` and so changes from one run to the next.
void PrintTo(const TruthCase& tc, std::ostream* os) {
  *os << '"' << tc.expr << "\" -> " << (tc.expected ? "true" : "false");
}

class ConstraintTruthTest : public ::testing::TestWithParam<TruthCase> {};

TEST_P(ConstraintTruthTest, EvaluatesToExpected) {
  const TruthCase& tc = GetParam();
  const Constraint c = Constraint::parse(tc.expr);
  EXPECT_EQ(c.matches(test_props()), tc.expected) << "expr: " << tc.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Literals, ConstraintTruthTest,
    ::testing::Values(TruthCase{"TRUE", true}, TruthCase{"FALSE", false},
                      TruthCase{"not TRUE", false}, TruthCase{"not FALSE", true},
                      TruthCase{"TRUE and TRUE", true}, TruthCase{"TRUE and FALSE", false},
                      TruthCase{"FALSE or TRUE", true}, TruthCase{"FALSE or FALSE", false},
                      TruthCase{"not (TRUE and FALSE)", true}));

INSTANTIATE_TEST_SUITE_P(
    NumericComparisons, ConstraintTruthTest,
    ::testing::Values(TruthCase{"LoadAvg < 50", true}, TruthCase{"LoadAvg < 35", false},
                      TruthCase{"LoadAvg <= 35", true}, TruthCase{"LoadAvg > 34.5", true},
                      TruthCase{"LoadAvg >= 36", false}, TruthCase{"LoadAvg == 35", true},
                      TruthCase{"LoadAvg != 35", false}, TruthCase{"Replicas == 3", true}));

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, ConstraintTruthTest,
    ::testing::Values(TruthCase{"LoadAvg + 10 < 50", true},
                      TruthCase{"LoadAvg * 2 == 70", true},
                      TruthCase{"LoadAvg / 5 == 7", true},
                      TruthCase{"LoadAvg - 40 < 0", true},
                      TruthCase{"-LoadAvg < 0", true},
                      TruthCase{"2 + 3 * 4 == 14", true},
                      TruthCase{"(2 + 3) * 4 == 20", true},
                      TruthCase{"Replicas * Replicas == 9", true}));

INSTANTIATE_TEST_SUITE_P(
    Strings, ConstraintTruthTest,
    ::testing::Values(TruthCase{"LoadAvgIncreasing == 'no'", true},
                      TruthCase{"LoadAvgIncreasing == 'yes'", false},
                      TruthCase{"LoadAvgIncreasing != 'yes'", true},
                      TruthCase{"Host < 'zzz'", true},
                      TruthCase{"'cluster' ~ Host", true},
                      TruthCase{"'mainframe' ~ Host", false},
                      TruthCase{"'node' ~ 'a node name'", true}));

INSTANTIATE_TEST_SUITE_P(
    Booleans, ConstraintTruthTest,
    ::testing::Values(TruthCase{"Secure == TRUE", true}, TruthCase{"Secure == FALSE", false},
                      TruthCase{"Secure", true}, TruthCase{"not Secure", false}));

INSTANTIATE_TEST_SUITE_P(
    Exist, ConstraintTruthTest,
    ::testing::Values(TruthCase{"exist LoadAvg", true}, TruthCase{"exist Missing", false},
                      TruthCase{"not exist Missing", true},
                      TruthCase{"exist LoadAvg and exist Host", true}));

INSTANTIATE_TEST_SUITE_P(
    UndefinedProperties, ConstraintTruthTest,
    ::testing::Values(
        // OMG semantics: touching an undefined property fails the constraint.
        TruthCase{"Missing < 50", false}, TruthCase{"Missing == Missing", false},
        TruthCase{"not (Missing < 50)", false},
        TruthCase{"LoadAvg < 50 and Missing == 1", false},
        // ...but a short-circuited true lhs never touches the rhs.
        TruthCase{"LoadAvg < 50 or Missing == 1", true}));

INSTANTIATE_TEST_SUITE_P(
    TypeMismatches, ConstraintTruthTest,
    ::testing::Values(
        // cross-type == is false, != is true; ordering fails the constraint
        TruthCase{"LoadAvg == 'no'", false}, TruthCase{"LoadAvg != 'no'", true},
        TruthCase{"LoadAvgIncreasing < 5", false},
        TruthCase{"Secure < 5", false}));

INSTANTIATE_TEST_SUITE_P(
    InOperator, ConstraintTruthTest,
    ::testing::Values(TruthCase{"'gpu' in Tags", true}, TruthCase{"'tpu' in Tags", false},
                      TruthCase{"42 in Tags", true}, TruthCase{"41 in Tags", false},
                      TruthCase{"'x' in Missing", false}));

INSTANTIATE_TEST_SUITE_P(
    PaperQueries, ConstraintTruthTest,
    ::testing::Values(
        // The exact queries from the paper's SV example (Fig. 7).
        TruthCase{"LoadAvg < 50 and LoadAvgIncreasing == 'no' ", true},
        TruthCase{"LoadAvg < 20 and LoadAvgIncreasing == 'no'", false}));

TEST(ConstraintTest, EmptyConstraintMatchesEverything) {
  EXPECT_TRUE(Constraint::parse("").matches(test_props()));
  EXPECT_TRUE(Constraint::parse("   ").matches(test_props()));
  EXPECT_TRUE(Constraint::parse("").match_all());
}

TEST(ConstraintTest, HostileNestingRejectedNotCrash) {
  const std::string deep_parens(5000, '(');
  EXPECT_THROW(Constraint::parse(deep_parens + "TRUE"), IllegalConstraint);
  std::string nots;
  for (int i = 0; i < 5000; ++i) nots += "not ";
  EXPECT_THROW(Constraint::parse(nots + "TRUE"), IllegalConstraint);
  std::string minuses(5000, '-');
  EXPECT_THROW(Constraint::parse(minuses + "1 < 2"), IllegalConstraint);
  // Reasonable nesting still parses.
  EXPECT_NO_THROW(Constraint::parse("((((((((((TRUE))))))))))"));
  EXPECT_NO_THROW(Constraint::parse("not not not TRUE"));
}

TEST(ConstraintTest, SyntaxErrors) {
  EXPECT_THROW(Constraint::parse("LoadAvg <"), IllegalConstraint);
  EXPECT_THROW(Constraint::parse("and LoadAvg"), IllegalConstraint);
  EXPECT_THROW(Constraint::parse("LoadAvg < 5 extra"), IllegalConstraint);
  EXPECT_THROW(Constraint::parse("(LoadAvg < 5"), IllegalConstraint);
  EXPECT_THROW(Constraint::parse("'unterminated"), IllegalConstraint);
  EXPECT_THROW(Constraint::parse("exist"), IllegalConstraint);
  EXPECT_THROW(Constraint::parse("a ? b"), IllegalConstraint);
}

TEST(ConstraintTest, PrecedenceOrOverAnd) {
  // 'a or b and c' parses as 'a or (b and c)'
  auto props = [](const std::string& name) -> std::optional<Value> {
    if (name == "a") return Value(true);
    if (name == "b") return Value(false);
    if (name == "c") return Value(false);
    return std::nullopt;
  };
  EXPECT_TRUE(Constraint::parse("a or b and c").matches(props));
}

TEST(ConstraintTest, ReferencedProperties) {
  const Constraint c = Constraint::parse("LoadAvg < 50 and exist Host and X + Y > 0");
  const auto refs = c.referenced_properties();
  EXPECT_EQ(refs, (std::vector<std::string>{"Host", "LoadAvg", "X", "Y"}));
}

TEST(ConstraintTest, EvaluateNumeric) {
  const auto props = test_props();
  EXPECT_DOUBLE_EQ(*Constraint::parse("LoadAvg").evaluate_numeric(props), 35.0);
  EXPECT_DOUBLE_EQ(*Constraint::parse("LoadAvg * 2 + 1").evaluate_numeric(props), 71.0);
  EXPECT_FALSE(Constraint::parse("Missing").evaluate_numeric(props).has_value());
  EXPECT_FALSE(Constraint::parse("Host").evaluate_numeric(props).has_value())
      << "string-valued expressions have no numeric value";
  EXPECT_DOUBLE_EQ(*Constraint::parse("Secure").evaluate_numeric(props), 1.0)
      << "booleans coerce to 0/1 for scoring";
}

TEST(ConstraintTest, ScientificNotationNumbers) {
  auto props = [](const std::string&) -> std::optional<Value> { return std::nullopt; };
  EXPECT_TRUE(Constraint::parse("1e3 == 1000").matches(props));
  EXPECT_TRUE(Constraint::parse("2.5e-1 == 0.25").matches(props));
}

TEST(ConstraintTest, DottedPropertyNames) {
  auto props = [](const std::string& name) -> std::optional<Value> {
    if (name == "host.region") return Value("eu");
    return std::nullopt;
  };
  EXPECT_TRUE(Constraint::parse("host.region == 'eu'").matches(props));
}

// ---- preferences ----------------------------------------------------------

TEST(PreferenceTest, ParseKinds) {
  EXPECT_EQ(Preference::parse("").kind(), Preference::Kind::First);
  EXPECT_EQ(Preference::parse("first").kind(), Preference::Kind::First);
  EXPECT_EQ(Preference::parse("random").kind(), Preference::Kind::Random);
  EXPECT_EQ(Preference::parse("min LoadAvg").kind(), Preference::Kind::Min);
  EXPECT_EQ(Preference::parse("max Replicas * 2").kind(), Preference::Kind::Max);
  EXPECT_EQ(Preference::parse("with Secure == TRUE").kind(), Preference::Kind::With);
}

TEST(PreferenceTest, MinExpressionEvaluates) {
  const Preference p = Preference::parse("min LoadAvg + 5");
  EXPECT_DOUBLE_EQ(*p.expr().evaluate_numeric(test_props()), 40.0);
}

TEST(PreferenceTest, Illegal) {
  EXPECT_THROW(Preference::parse("sort-by LoadAvg"), IllegalPreference);
  EXPECT_THROW(Preference::parse("min <<<"), IllegalPreference);
  EXPECT_THROW(Preference::parse("minLoadAvg"), IllegalPreference)
      << "keyword must be followed by whitespace";
}

}  // namespace
}  // namespace adapt::trading
