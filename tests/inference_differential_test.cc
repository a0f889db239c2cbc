// Differential of the indexed, semi-naive inference engine against the
// linear oracle it replaced (tests/inference_oracle.h): in every mode the
// intensional answer, its empty proof and each backward statement's cited
// target must be byte-identical, over the induced rule bases of the three
// testbeds and over hand-built rule sets that induction never produces.

#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "gtest/gtest.h"
#include "inference/engine.h"
#include "sql/sql_parser.h"
#include "testbed/fleet_generator.h"
#include "tests/inference_oracle.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

constexpr InferenceMode kModes[] = {
    InferenceMode::kForward, InferenceMode::kBackward, InferenceMode::kCombined};

// ToString() plus what it leaves out: each backward statement's target and
// exactness, and each fact's origin.
std::string Detail(const IntensionalAnswer& answer) {
  std::string out = answer.ToString();
  for (const IntensionalStatement& s : answer.statements()) {
    out += s.target.ToString() + (s.exact ? " exact" : " approximate");
    for (const Fact& f : s.facts) {
      out += " " + std::to_string(static_cast<int>(f.origin));
    }
    out += "\n";
  }
  return out;
}

std::string Render(const std::vector<Fact>& facts) {
  std::string out;
  for (const Fact& f : facts) {
    out += f.ToString() + " /" + std::to_string(static_cast<int>(f.origin)) +
           " " + f.root_entity + "\n";
  }
  return out;
}

void ExpectSameAsOracle(const DataDictionary& dictionary, const RuleSet& rules,
                        const QueryDescription& query) {
  SCOPED_TRACE(query.ToString());
  InferenceEngine engine(&dictionary);
  testing_util::LinearInference oracle(&dictionary);
  for (InferenceMode mode : kModes) {
    SCOPED_TRACE(InferenceModeName(mode));
    Result<IntensionalAnswer> got = engine.InferWith(query, mode, rules);
    Result<IntensionalAnswer> want = oracle.InferWith(query, mode, rules);
    ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
    if (!got.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    EXPECT_EQ(got->ToString(), want->ToString());
    EXPECT_EQ(got->empty_proof(), want->empty_proof());
    EXPECT_EQ(Detail(*got), Detail(*want));
  }
  Result<std::vector<Fact>> got = engine.Forward(query, rules);
  Result<std::vector<Fact>> want = oracle.Forward(query, rules);
  ASSERT_EQ(got.ok(), want.ok());
  if (got.ok()) {
    EXPECT_EQ(Render(*got), Render(*want));
  }
}

void ExpectSameAsOracle(const IqsSystem& system,
                        const std::vector<std::string>& queries) {
  std::shared_ptr<const RuleSet> rules =
      system.dictionary().induced_rules_snapshot();
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect(sql));
    ASSERT_OK_AND_ASSIGN(QueryDescription query,
                         system.processor().Describe(stmt));
    ExpectSameAsOracle(system.dictionary(), *rules, query);
    if (::testing::Test::HasFailure()) return;
  }
}

Status InduceAt(IqsSystem* system, int64_t min_support) {
  InductionConfig config;
  config.min_support = min_support;
  return system->Induce(config);
}

const std::vector<std::string>& ShipQueries() {
  static const std::vector<std::string>* queries = new std::vector<
      std::string>{
      Example1Sql(),
      Example2Sql(),
      Example3Sql(),
      // band, open-ended, point, string, two conditions, provably empty
      "SELECT ClassName FROM CLASS WHERE Displacement BETWEEN 3000 AND 7000",
      "SELECT ClassName, Type FROM CLASS WHERE Displacement >= 7250",
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'",
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Name = 'Bremerton'",
      "SELECT Sonar FROM SONAR WHERE SONAR.SonarType = 'BQQ'",
      "SELECT ClassName FROM CLASS WHERE Type = 'SSN' AND Displacement > 3000",
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' AND Displacement < 3000",
      "SELECT Id FROM SUBMARINE",
  };
  return *queries;
}

TEST(InferenceDifferentialTest, ShipAtEveryThreshold) {
  std::unique_ptr<IqsSystem> system = testing_util::ShipSystemOrFail();
  ASSERT_NE(system, nullptr);
  for (int64_t nc = 1; nc <= 5; ++nc) {
    SCOPED_TRACE("Nc=" + std::to_string(nc));
    ASSERT_OK(InduceAt(system.get(), nc));
    ExpectSameAsOracle(*system, ShipQueries());
    if (HasFailure()) return;
  }
}

TEST(InferenceDifferentialTest, Employee) {
  std::unique_ptr<IqsSystem> system = testing_util::EmployeeSystemOrFail();
  ASSERT_NE(system, nullptr);
  for (int64_t nc : {1, 3}) {
    SCOPED_TRACE("Nc=" + std::to_string(nc));
    ASSERT_OK(InduceAt(system.get(), nc));
    ExpectSameAsOracle(
        *system,
        {"SELECT Name FROM EMPLOYEE WHERE Salary > 100000",
         "SELECT Name FROM EMPLOYEE WHERE Age BETWEEN 25 AND 30",
         "SELECT Name, Position FROM EMPLOYEE WHERE Age >= 40",
         "SELECT Name FROM EMPLOYEE WHERE Position = 'MANAGER'",
         "SELECT Age FROM EMPLOYEE WHERE Name = 'Ada Moore'",
         "SELECT Name FROM EMPLOYEE WHERE Position = 'MANAGER' "
         "AND Salary < 40000"});
    if (HasFailure()) return;
  }
}

TEST(InferenceDifferentialTest, FleetAtOneThreeAndFifty) {
  auto fleet = GenerateFleet(200, 42);
  auto catalog = BuildFleetCatalog();
  ASSERT_OK(fleet.status());
  ASSERT_OK(catalog.status());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<IqsSystem> system,
                       IqsSystem::Create(std::move(fleet).value(),
                                         std::move(catalog).value()));
  const FleetTypeSpec& cvn = Table1Specs()[2];
  const std::vector<std::string> queries = {
      "SELECT Name FROM BATTLESHIP WHERE Displacement BETWEEN 8000 AND 9500",
      "SELECT Name FROM BATTLESHIP WHERE Displacement >= 60000",
      "SELECT Name FROM BATTLESHIP WHERE Displacement = 45000",
      "SELECT Id, Type FROM BATTLESHIP WHERE Name = 'Hull 150'",
      "SELECT Name FROM BATTLESHIP WHERE Type = 'SSN'",
      "SELECT Name FROM BATTLESHIP WHERE Type = 'DDG' "
      "AND Displacement > 5000",
      "SELECT Name FROM BATTLESHIP WHERE Type = '" + std::string(cvn.type) +
          "' AND Displacement > " +
          std::to_string(cvn.displacement_hi + 100),
      "SELECT Name, TypeName FROM BATTLESHIP, SHIPTYPE "
      "WHERE BATTLESHIP.Type = SHIPTYPE.Type "
      "AND BATTLESHIP.Displacement >= 5000 "
      "AND BATTLESHIP.Displacement <= 8000",
  };
  for (int64_t nc : {1, 3, 50}) {
    SCOPED_TRACE("Nc=" + std::to_string(nc));
    ASSERT_OK(InduceAt(system.get(), nc));
    ExpectSameAsOracle(*system, queries);
    if (HasFailure()) return;
  }
}

// ---- hand-built rule sets ----------------------------------------------

Clause Point(const std::string& attribute, const std::string& value) {
  return Clause::Equals(attribute, Value::String(value));
}

Clause Band(const std::string& attribute, int64_t lo, int64_t hi) {
  return Clause(attribute, *Interval::Closed(Value::Int(lo), Value::Int(hi)));
}

Rule MakeRule(std::vector<Clause> lhs, Clause rhs, std::string isa_type = "") {
  Rule rule;
  rule.scheme = "hand-built";
  rule.lhs = std::move(lhs);
  rule.rhs.clause = std::move(rhs);
  rule.rhs.isa_type = std::move(isa_type);
  rule.support = 1;
  return rule;
}

QueryDescription Where(std::vector<Clause> conditions) {
  QueryDescription query;
  query.object_types = {"SUBMARINE", "CLASS", "INSTALL"};
  query.conditions = std::move(conditions);
  return query;
}

bool Cites(const IntensionalAnswer& answer, AnswerDirection direction,
           int rule_id) {
  for (const IntensionalStatement* s : answer.InDirection(direction)) {
    for (int id : s->rule_ids) {
      if (id == rule_id) return true;
    }
  }
  return false;
}

class HandBuiltRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = testing_util::ShipSystemOrFail();
    ASSERT_NE(system_, nullptr);
  }
  const DataDictionary& dictionary() const { return system_->dictionary(); }

  std::unique_ptr<IqsSystem> system_;
};

TEST_F(HandBuiltRulesTest, SecondClauseFactIsNewOnlyInRoundTwo) {
  RuleSet rules;
  // R1 precedes the rule (R2) that derives its second clause's fact, so
  // it can only match in round 2; R3 then chains off R1 in round 3.
  rules.Add(MakeRule({Band("CLASS.Displacement", 7250, 30000),
                      Point("CLASS.Type", "SSBN")},
                     Point("CLASS.ClassName", "Ohio")));
  rules.Add(MakeRule({Band("CLASS.Displacement", 7250, 30000)},
                     Point("CLASS.Type", "SSBN"), "SSBN"));
  rules.Add(MakeRule({Point("ClassName", "Ohio")}, Point("Class", "0101")));
  QueryDescription query = Where(
      {Clause("CLASS.Displacement", Interval::AtLeast(Value::Int(8000), true))});
  ExpectSameAsOracle(dictionary(), rules, query);

  ASSERT_OK_AND_ASSIGN(
      IntensionalAnswer answer,
      InferenceEngine(&dictionary())
          .InferWith(query, InferenceMode::kForward, rules));
  EXPECT_TRUE(Cites(answer, AnswerDirection::kContains, 1));
  EXPECT_TRUE(Cites(answer, AnswerDirection::kContains, 3));
}

TEST_F(HandBuiltRulesTest, RulesFireInRuleOrderAcrossAttributes) {
  // Both conditions are new in round 1. The rule over the second one
  // comes first in rule order, so its fact must be derived first.
  RuleSet rules;
  rules.Add(MakeRule({Point("CLASS.Class", "0101")},
                     Point("CLASS.ClassName", "Ohio")));
  rules.Add(MakeRule({Band("CLASS.Displacement", 7250, 30000)},
                     Point("CLASS.Type", "SSBN"), "SSBN"));
  QueryDescription query = Where(
      {Clause("CLASS.Displacement", Interval::AtLeast(Value::Int(8000), true)),
       Point("CLASS.Class", "0101")});
  ExpectSameAsOracle(dictionary(), rules, query);
}

TEST_F(HandBuiltRulesTest, OneAttributeUnderEverySpelling) {
  RuleSet rules;
  rules.Add(MakeRule({Point("x.Sonar", "BQS-04")}, Point("x.Type", "SSN"),
                     "SSN"));
  rules.Add(MakeRule({Band("Displacement", 2145, 6955)},
                     Point("INSTALL.Sonar", "BQS-04")));
  rules.Add(MakeRule({Point("sonar", "BQS-04")}, Point("Type", "SSN")));
  rules.Add(MakeRule({Point("INSTALL.SONAR", "BQS-04")},
                     Point("y.SonarType", "BQS"), "BQS"));
  for (const char* spelling : {"INSTALL.Sonar", "sonar", "x.Sonar", "y.SONAR"}) {
    SCOPED_TRACE(spelling);
    QueryDescription query = Where({Point(spelling, "BQS-04")});
    ExpectSameAsOracle(dictionary(), rules, query);
    ASSERT_OK_AND_ASSIGN(
        IntensionalAnswer answer,
        InferenceEngine(&dictionary())
            .InferWith(query, InferenceMode::kCombined, rules));
    for (int id : {1, 3, 4}) {
      EXPECT_TRUE(Cites(answer, AnswerDirection::kContains, id)) << "R" << id;
    }
    EXPECT_TRUE(Cites(answer, AnswerDirection::kContainedIn, 2));
  }
}

TEST_F(HandBuiltRulesTest, EmptyLhsRulesNeverFire) {
  RuleSet rules;
  rules.Add(MakeRule({}, Point("CLASS.Type", "SSBN"), "SSBN"));
  rules.Add(MakeRule({Band("CLASS.Displacement", 7250, 30000)},
                     Point("CLASS.Type", "SSBN"), "SSBN"));
  rules.Add(MakeRule({}, Band("CLASS.Displacement", 9000, 9000)));
  for (const QueryDescription& query :
       {Where({Clause("CLASS.Displacement",
                      Interval::AtLeast(Value::Int(8000), true))}),
        Where({Point("CLASS.Type", "SSBN")}), Where({})}) {
    ExpectSameAsOracle(dictionary(), rules, query);
    ASSERT_OK_AND_ASSIGN(
        IntensionalAnswer answer,
        InferenceEngine(&dictionary())
            .InferWith(query, InferenceMode::kCombined, rules));
    for (AnswerDirection direction :
         {AnswerDirection::kContains, AnswerDirection::kContainedIn}) {
      EXPECT_FALSE(Cites(answer, direction, 1));
      EXPECT_FALSE(Cites(answer, direction, 3));
    }
  }
}

TEST_F(HandBuiltRulesTest, PrunedAfterItsTablesWereBuilt) {
  ASSERT_OK(InduceAt(system_.get(), 1));
  RuleSet pruned = *dictionary().induced_rules_snapshot();
  ASSERT_GT(pruned.Prune(3), 0u);
  ASSERT_GT(pruned.size(), 0u);
  RuleSet fresh;
  fresh.AddAll(pruned.rules());
  InferenceEngine engine(&dictionary());
  for (const std::string& sql : ShipQueries()) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect(sql));
    ASSERT_OK_AND_ASSIGN(QueryDescription query,
                         system_->processor().Describe(stmt));
    ExpectSameAsOracle(dictionary(), pruned, query);
    ASSERT_OK_AND_ASSIGN(
        IntensionalAnswer from_pruned,
        engine.InferWith(query, InferenceMode::kCombined, pruned));
    ASSERT_OK_AND_ASSIGN(
        IntensionalAnswer from_fresh,
        engine.InferWith(query, InferenceMode::kCombined, fresh));
    EXPECT_EQ(Detail(from_pruned), Detail(from_fresh));
  }
}

}  // namespace
}  // namespace iqs
