// End-to-end reproduction of the paper's §6 worked examples through the
// full public API (IqsSystem): extensional tables, intensional
// statements, prose summaries, and the coverage analysis of Example 2.

#include "core/system.h"

#include "gtest/gtest.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::ColumnText;

class ShipExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto system = BuildShipSystem();
    ASSERT_TRUE(system.ok()) << system.status();
    system_ = std::move(system).value();
    InductionConfig config;
    config.min_support = 3;
    ASSERT_OK(system_->Induce(config));
  }

  std::unique_ptr<IqsSystem> system_;
};

TEST_F(ShipExamplesTest, Example1ForwardAnswer) {
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       system_->Query(Example1Sql(), InferenceMode::kForward));
  // Paper's extensional table: Rhode Island and Typhoon.
  ASSERT_EQ(result.extensional.size(), 2u);
  std::vector<std::string> names = ColumnText(result.extensional, "Name");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"Rhode Island", "Typhoon"}));
  // Paper's A_I: "Ship type SSBN has displacement greater than 8000".
  EXPECT_EQ(system_->formatter().Summary(result),
            "Ship type SSBN has Displacement > 8000.");
  // Exactly one forward statement, citing R9.
  auto contains = result.intensional.InDirection(AnswerDirection::kContains);
  ASSERT_EQ(contains.size(), 1u);
  EXPECT_EQ(contains[0]->rule_ids, (std::vector<int>{9}));
}

TEST_F(ShipExamplesTest, Example1ForwardStatementIsSound) {
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       system_->Query(Example1Sql(), InferenceMode::kForward));
  // Every extensional answer satisfies the forward characterization
  // (coverage 100%).
  auto contains = result.intensional.InDirection(AnswerDirection::kContains);
  ASSERT_EQ(contains.size(), 1u);
  ASSERT_OK_AND_ASSIGN(double coverage,
                       system_->processor().Coverage(result, *contains[0]));
  EXPECT_DOUBLE_EQ(coverage, 1.0);
}

TEST_F(ShipExamplesTest, Example2BackwardAnswer) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      system_->Query(Example2Sql(), InferenceMode::kBackward));
  EXPECT_EQ(result.extensional.size(), 7u);
  // Paper's A_I: "Ship Classes in the range of 0101 to 0103 are SSBN."
  EXPECT_EQ(system_->formatter().Summary(result),
            "Ships with 0101 <= Class <= 0103 are SSBN.");
}

TEST_F(ShipExamplesTest, Example2AnswerIsIncompleteExactlyAsThePaperNotes) {
  // "Note that ship class 1301 is also a SSBN but is not included in the
  // answer" — 6 of the 7 extensional rows are covered.
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      system_->Query(Example2Sql(), InferenceMode::kBackward));
  const IntensionalStatement* r5_statement = nullptr;
  for (const IntensionalStatement& s : result.intensional.statements()) {
    if (s.rule_ids == std::vector<int>{5}) r5_statement = &s;
  }
  ASSERT_NE(r5_statement, nullptr);
  ASSERT_OK_AND_ASSIGN(double coverage,
                       system_->processor().Coverage(result, *r5_statement));
  EXPECT_NEAR(coverage, 6.0 / 7.0, 1e-9);
}

TEST_F(ShipExamplesTest, Example2CompleteWithoutPruning) {
  // The paper: "if this rule [R_new] is maintained by the system, then
  // the derived intensional answer will be complete."
  InductionConfig config;
  config.prune = false;
  ASSERT_OK(system_->Induce(config));
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      system_->Query(Example2Sql(), InferenceMode::kBackward));
  // Some backward statement now covers class 1301: the union of exact
  // backward statements' class clauses must include it. Check that a
  // point rule for 1301 produced a statement.
  bool found_1301 = false;
  for (const IntensionalStatement& s : result.intensional.statements()) {
    for (const Fact& f : s.facts) {
      if (f.kind == Fact::Kind::kRange &&
          f.clause.Satisfies(Value::String("1301"))) {
        found_1301 = true;
      }
    }
  }
  EXPECT_TRUE(found_1301);
}

TEST_F(ShipExamplesTest, Example3CombinedAnswer) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      system_->Query(Example3Sql(), InferenceMode::kCombined));
  ASSERT_EQ(result.extensional.size(), 4u);
  std::vector<std::string> classes = ColumnText(result.extensional, "Class");
  std::sort(classes.begin(), classes.end());
  EXPECT_EQ(classes,
            (std::vector<std::string>{"0208", "0209", "0212", "0215"}));
  // Paper's A_I: "Ship type SSN with class 0208 to 0215 is equipped with
  // sonar BQS-04."
  EXPECT_EQ(system_->formatter().Summary(result),
            "Ship type SSN with 0208 <= Class <= 0215 is equipped with "
            "Sonar = BQS-04.");
}

TEST_F(ShipExamplesTest, Example3BackwardPartIsFullyCovering) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      system_->Query(Example3Sql(), InferenceMode::kCombined));
  for (const IntensionalStatement& s : result.intensional.statements()) {
    if (s.direction != AnswerDirection::kContainedIn) continue;
    bool is_class_range = false;
    for (const Fact& f : s.facts) {
      if (f.clause.ToConditionString() == "0208 <= x.Class <= 0215") {
        is_class_range = true;
      }
    }
    if (!is_class_range) continue;
    ASSERT_OK_AND_ASSIGN(double coverage,
                         system_->processor().Coverage(result, s));
    EXPECT_DOUBLE_EQ(coverage, 1.0);
  }
}

TEST_F(ShipExamplesTest, ExplainRendersSummaryAndTrace) {
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       system_->Query(Example1Sql(), InferenceMode::kForward));
  std::string text = system_->Explain(result);
  EXPECT_NE(text.find("Ship type SSBN"), std::string::npos);
  EXPECT_NE(text.find("answers ⊆"), std::string::npos);
}

TEST_F(ShipExamplesTest, RuleRelocationThroughTheDatabase) {
  // §5.2.2: store rules as rule relations inside the EDB, wipe the
  // dictionary, reload, and the example answers still derive.
  ASSERT_OK(system_->StoreRulesInDatabase());
  EXPECT_TRUE(system_->database().Contains("RULE_REL"));
  size_t n = system_->dictionary().induced_rules().size();
  system_->dictionary().SetInducedRules(RuleSet());
  ASSERT_OK(system_->LoadRulesFromDatabase());
  EXPECT_EQ(system_->dictionary().induced_rules().size(), n);
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       system_->Query(Example1Sql(), InferenceMode::kForward));
  EXPECT_EQ(system_->formatter().Summary(result),
            "Ship type SSBN has Displacement > 8000.");
}

TEST_F(ShipExamplesTest, QueriesWithNoApplicableRulesSayasMuch) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      system_->Query("SELECT Id FROM SUBMARINE WHERE SUBMARINE.Name = "
                     "'Narwhal'",
                     InferenceMode::kCombined));
  EXPECT_EQ(result.extensional.size(), 1u);
  EXPECT_EQ(system_->formatter().Summary(result),
            "No intensional answer could be derived for this query.");
}

TEST_F(ShipExamplesTest, DescribeExtractsConditionsAndTypes) {
  ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect(Example1Sql()));
  ASSERT_OK_AND_ASSIGN(QueryDescription description,
                       system_->processor().Describe(stmt));
  EXPECT_EQ(description.object_types,
            (std::vector<std::string>{"SUBMARINE", "CLASS"}));
  ASSERT_EQ(description.conditions.size(), 1u);
  EXPECT_EQ(description.conditions[0].attribute(), "CLASS.Displacement");
  EXPECT_EQ(description.conditions[0].interval(),
            Interval::AtLeast(Value::Int(8000), /*open=*/true));
}

TEST_F(ShipExamplesTest, DescribeHandlesBetweenAndMirroredLiterals) {
  ASSERT_OK_AND_ASSIGN(
      SelectStatement stmt,
      ParseSelect("SELECT Id FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = "
                  "CLASS.Class AND CLASS.Displacement BETWEEN 7000 AND 9000 "
                  "AND 8000 > CLASS.Displacement"));
  ASSERT_OK_AND_ASSIGN(QueryDescription description,
                       system_->processor().Describe(stmt));
  ASSERT_EQ(description.conditions.size(), 2u);
  EXPECT_EQ(description.conditions[0].ToConditionString(),
            "7000 <= CLASS.Displacement <= 9000");
  EXPECT_EQ(description.conditions[1].ToConditionString(),
            "CLASS.Displacement < 8000");
}

TEST_F(ShipExamplesTest, ReversedBetweenIsProvablyEmpty) {
  // BETWEEN 5000 AND 3000 admits nothing, exactly like its desugaring.
  ASSERT_OK_AND_ASSIGN(
      QueryResult reversed,
      system_->Query("SELECT ClassName FROM CLASS WHERE Displacement "
                     "BETWEEN 5000 AND 3000"));
  ASSERT_OK_AND_ASSIGN(
      QueryResult desugared,
      system_->Query("SELECT ClassName FROM CLASS WHERE Displacement >= 5000 "
                     "AND Displacement <= 3000"));
  EXPECT_EQ(reversed.extensional.size(), 0u);
  EXPECT_TRUE(reversed.intensional.empty_proof().has_value());
  EXPECT_EQ(reversed.intensional.ToString(),
            desugared.intensional.ToString());
}

TEST_F(ShipExamplesTest, QuotedNumericsDescribeLikeTypedOnes) {
  // '3000' on an INT column binds to the integer 3000, so the answer is
  // never a string interval's "provably empty" over 7 rows.
  ASSERT_OK_AND_ASSIGN(
      QueryResult quoted,
      system_->Query("SELECT ClassName FROM CLASS WHERE Displacement > "
                     "'3000' AND Type = 'SSN'"));
  ASSERT_OK_AND_ASSIGN(
      QueryResult typed,
      system_->Query("SELECT ClassName FROM CLASS WHERE Displacement > 3000 "
                     "AND Type = 'SSN'"));
  EXPECT_EQ(quoted.extensional.size(), 7u);
  EXPECT_FALSE(quoted.intensional.empty_proof().has_value());
  EXPECT_EQ(quoted.intensional.ToString(), typed.intensional.ToString());
}

TEST_F(ShipExamplesTest, DescribeCoercesLiteralSpellings) {
  ASSERT_OK_AND_ASSIGN(
      SelectStatement stmt,
      ParseSelect("SELECT Id FROM SUBMARINE WHERE Class = 0204"));
  ASSERT_OK_AND_ASSIGN(QueryDescription description,
                       system_->processor().Describe(stmt));
  ASSERT_EQ(description.conditions.size(), 1u);
  EXPECT_TRUE(
      description.conditions[0].Satisfies(Value::String("0204")));
}

}  // namespace
}  // namespace iqs
