#include "core/semantic_optimizer.h"

#include "gtest/gtest.h"
#include "induction/ils.h"
#include "testbed/fleet_generator.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

class SemanticOptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = BuildShipDatabase();
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    auto catalog = BuildShipCatalog();
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    catalog_ = std::move(catalog).value();
    dictionary_ = std::make_unique<DataDictionary>(catalog_.get());
    ASSERT_OK(dictionary_->BuildFrames());
    ASSERT_OK(dictionary_->ComputeActiveDomains(*db_));
    optimizer_ = std::make_unique<SemanticOptimizer>(dictionary_.get());
  }

  void Induce(int64_t nc, bool prune = true) {
    InductiveLearningSubsystem ils(db_.get(), catalog_.get());
    InductionConfig config;
    config.min_support = nc;
    config.prune = prune;
    auto rules = ils.InduceAll(config);
    ASSERT_TRUE(rules.ok()) << rules.status();
    dictionary_->SetInducedRules(std::move(rules).value());
  }

  QueryDescription TypeIs(const std::string& type) {
    QueryDescription query;
    query.object_types = {"SUBMARINE", "CLASS"};
    query.conditions.push_back(
        Clause::Equals("CLASS.Type", Value::String(type)));
    return query;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<KerCatalog> catalog_;
  std::unique_ptr<DataDictionary> dictionary_;
  std::unique_ptr<SemanticOptimizer> optimizer_;
};

TEST_F(SemanticOptimizerTest, FamilyCompletenessMarkedByInduction) {
  Induce(3);
  // SSBN's Class family is incomplete at Nc = 3 (the 1301 run is
  // pruned); SSN's Class family is complete (one run covers all nine
  // classes).
  for (const Rule& r : dictionary_->induced_rules().rules()) {
    if (r.scheme != "Class->Type") continue;
    if (r.rhs.clause.interval().lo()->ToString() == "SSBN") {
      EXPECT_FALSE(r.family_complete) << r.Body();
    } else {
      EXPECT_TRUE(r.family_complete) << r.Body();
    }
  }
}

TEST_F(SemanticOptimizerTest, CompletenessWithoutPruning) {
  Induce(1, /*prune=*/false);
  for (const Rule& r : dictionary_->induced_rules().rules()) {
    if (r.scheme == "Class->Type" || r.scheme == "Displacement->Type") {
      EXPECT_TRUE(r.family_complete) << r.Body();
    }
  }
}

TEST_F(SemanticOptimizerTest, DeriveUnionsTheFamilyIntervals) {
  Induce(1, /*prune=*/false);
  std::vector<ImpliedCondition> implied =
      optimizer_->Derive(TypeIs("SSBN"));
  // Schemes concluding Type = SSBN: Class->Type, Displacement->Type
  // (ClassName->Type too), each one implied condition.
  ASSERT_GE(implied.size(), 2u);
  const ImpliedCondition* by_class = nullptr;
  const ImpliedCondition* by_displacement = nullptr;
  for (const ImpliedCondition& c : implied) {
    if (c.attribute == "Class") by_class = &c;
    if (c.attribute == "Displacement") by_displacement = &c;
  }
  ASSERT_NE(by_class, nullptr);
  EXPECT_TRUE(by_class->complete);
  // Classes 0101-0103 plus the 1301 singleton: two intervals.
  ASSERT_EQ(by_class->intervals.size(), 2u);
  EXPECT_TRUE(by_class->Admits(Value::String("0102")));
  EXPECT_TRUE(by_class->Admits(Value::String("1301")));
  EXPECT_FALSE(by_class->Admits(Value::String("0204")));
  ASSERT_NE(by_displacement, nullptr);
  EXPECT_TRUE(by_displacement->Admits(Value::Int(16600)));
  EXPECT_FALSE(by_displacement->Admits(Value::Int(6000)));
}

TEST_F(SemanticOptimizerTest, PrunedFamilyFlaggedIncomplete) {
  Induce(3);
  std::vector<ImpliedCondition> implied =
      optimizer_->Derive(TypeIs("SSBN"));
  const ImpliedCondition* by_class = nullptr;
  for (const ImpliedCondition& c : implied) {
    if (c.attribute == "Class") by_class = &c;
  }
  ASSERT_NE(by_class, nullptr);
  EXPECT_FALSE(by_class->complete);
  // The incomplete restriction would lose the Typhoon (class 1301).
  EXPECT_FALSE(by_class->Admits(Value::String("1301")));
}

TEST_F(SemanticOptimizerTest, CompleteImplicationPreservesAnswers) {
  // Soundness of the optimization: the set of CLASS rows with Type =
  // SSBN equals the set admitted by the complete implied Class
  // condition.
  Induce(1, /*prune=*/false);
  std::vector<ImpliedCondition> implied = optimizer_->Derive(TypeIs("SSBN"));
  const ImpliedCondition* by_class = nullptr;
  for (const ImpliedCondition& c : implied) {
    if (c.attribute == "Class") by_class = &c;
  }
  ASSERT_NE(by_class, nullptr);
  ASSERT_TRUE(by_class->complete);
  ASSERT_OK_AND_ASSIGN(const Relation* classes, db_->Get("CLASS"));
  ASSERT_OK_AND_ASSIGN(size_t cls, classes->schema().IndexOf("Class"));
  ASSERT_OK_AND_ASSIGN(size_t type, classes->schema().IndexOf("Type"));
  for (const Tuple& row : classes->rows()) {
    bool is_ssbn = row.at(type) == Value::String("SSBN");
    EXPECT_EQ(by_class->Admits(row.at(cls)), is_ssbn) << row.ToString();
  }
}

TEST_F(SemanticOptimizerTest, NonPointConditionsIgnored) {
  Induce(1, /*prune=*/false);
  QueryDescription range_query;
  range_query.object_types = {"CLASS"};
  range_query.conditions.push_back(Clause(
      "CLASS.Displacement", Interval::AtLeast(Value::Int(8000), true)));
  EXPECT_TRUE(optimizer_->Derive(range_query).empty());
}

TEST_F(SemanticOptimizerTest, RoundTripsThroughRuleRelations) {
  Induce(3);
  ASSERT_OK_AND_ASSIGN(RuleRelations relations,
                       dictionary_->ExportInducedRules());
  ASSERT_OK(dictionary_->ImportInducedRules(relations));
  // family_complete survives the meta-relation round trip.
  bool any_complete = false, any_incomplete = false;
  for (const Rule& r : dictionary_->induced_rules().rules()) {
    (r.family_complete ? any_complete : any_incomplete) = true;
  }
  EXPECT_TRUE(any_complete);
  EXPECT_TRUE(any_incomplete);
}

TEST_F(SemanticOptimizerTest, FleetScaleRestriction) {
  // On the synthetic fleet, Type = 'CVN' implies a narrow displacement
  // band, admitting ~1/12 of the ships.
  auto fleet = GenerateFleet(50, 3);
  ASSERT_TRUE(fleet.ok());
  auto fleet_catalog = BuildFleetCatalog();
  ASSERT_TRUE(fleet_catalog.ok());
  DataDictionary dictionary(fleet_catalog->get());
  ASSERT_OK(dictionary.BuildFrames());
  ASSERT_OK(dictionary.ComputeActiveDomains(**fleet));
  InductiveLearningSubsystem ils(fleet->get(), fleet_catalog->get());
  InductionConfig config;
  config.min_support = 3;
  auto rules = ils.InduceAll(config);
  ASSERT_TRUE(rules.ok());
  dictionary.SetInducedRules(std::move(rules).value());
  SemanticOptimizer optimizer(&dictionary);
  QueryDescription query;
  query.object_types = {"BATTLESHIP"};
  query.conditions.push_back(
      Clause::Equals("BATTLESHIP.Type", Value::String("CVN")));
  std::vector<ImpliedCondition> implied = optimizer.Derive(query);
  const ImpliedCondition* by_displacement = nullptr;
  for (const ImpliedCondition& c : implied) {
    if (c.attribute == "Displacement") by_displacement = &c;
  }
  ASSERT_NE(by_displacement, nullptr);
  EXPECT_TRUE(by_displacement->complete);  // CVN's range is isolated
  ASSERT_OK_AND_ASSIGN(const Relation* ships, (*fleet)->Get("BATTLESHIP"));
  ASSERT_OK_AND_ASSIGN(size_t column, ships->schema().IndexOf("Displacement"));
  size_t admitted = 0;
  for (const Tuple& row : ships->rows()) {
    if (by_displacement->Admits(row.at(column))) ++admitted;
  }
  EXPECT_EQ(ships->size(), 600u);
  EXPECT_EQ(admitted, 50u);  // exactly the CVNs
}

}  // namespace
}  // namespace iqs
