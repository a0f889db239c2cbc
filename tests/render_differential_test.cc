// Differential of the single-buffer renderer (Clause, Fact and
// IntensionalStatement AppendTo, AnswerFormatter::Render) against the
// string-concatenating rendering it replaced (tests/render_oracle.h):
// every answer must render byte-identically. Covers fleet answers of
// each query class the benchmark drives (point, band, typed, join, agg,
// empty, range) at Nc = 1, where a combined answer carries about a
// thousand backward statements, plus an extensional-only, a
// skipped-rule and a semantically rewritten answer. The golden queries
// are covered in golden_answers_test.cc.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "sql/sqo_rewrite.h"
#include "testbed/fleet_generator.h"
#include "tests/render_oracle.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

class RenderDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto fleet = GenerateFleet(200, 42);
    auto catalog = BuildFleetCatalog();
    ASSERT_OK(fleet.status());
    ASSERT_OK(catalog.status());
    auto system = IqsSystem::Create(std::move(fleet).value(),
                                    std::move(catalog).value());
    ASSERT_OK(system.status());
    fleet_ = std::move(system).value().release();
    InductionConfig config;
    config.min_support = 1;
    ASSERT_OK(fleet_->Induce(config));
  }
  static void TearDownTestSuite() {
    delete fleet_;
    fleet_ = nullptr;
  }

  // Queries `sql` uncached and checks its renderings.
  static QueryResult QueryAndCompare(const std::string& sql) {
    QueryOptions options;
    options.use_cache = false;
    auto result = fleet_->processor().Process(sql, options);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    if (!result.ok()) return {};
    render_oracle::ExpectRendersAsReference(fleet_->formatter(), *result,
                                            sql);
    return std::move(result).value();
  }

  static IqsSystem* fleet_;
};

IqsSystem* RenderDifferentialTest::fleet_ = nullptr;

TEST_F(RenderDifferentialTest, FleetAnswersOfEveryQueryClass) {
  ASSERT_NE(fleet_, nullptr);
  const FleetTypeSpec& cvn = Table1Specs()[2];
  const std::vector<std::string> queries = {
      // point
      "SELECT Id, Name, Type, Displacement FROM BATTLESHIP "
      "WHERE Name = 'Hull 150'",
      // band
      "SELECT Name, Displacement FROM BATTLESHIP "
      "WHERE Displacement BETWEEN 8000 AND 9500",
      "SELECT Name, Displacement FROM BATTLESHIP "
      "WHERE Displacement BETWEEN 41000 AND 42950",
      // typed
      "SELECT Name, Displacement FROM BATTLESHIP WHERE Type = 'SSN'",
      "SELECT Name, Displacement FROM BATTLESHIP WHERE Type = '" +
          std::string(cvn.type) + "'",
      // join
      "SELECT Name, TypeName FROM BATTLESHIP, SHIPTYPE "
      "WHERE BATTLESHIP.Type = SHIPTYPE.Type "
      "AND BATTLESHIP.Displacement >= 41000 "
      "AND BATTLESHIP.Displacement <= 44000",
      // agg
      "SELECT Type, COUNT(*) FROM BATTLESHIP WHERE Displacement > 20000 "
      "GROUP BY Type ORDER BY Type",
      // empty
      "SELECT Name FROM BATTLESHIP WHERE Type = '" + std::string(cvn.type) +
          "' AND Displacement > " + std::to_string(cvn.displacement_hi + 100),
      // range
      "SELECT Name, Displacement FROM BATTLESHIP WHERE Displacement >= 30000",
      "SELECT Name, Displacement FROM BATTLESHIP WHERE Displacement < 4000.5",
  };
  size_t statements = 0;
  bool empty_proof = false;
  for (const std::string& sql : queries) {
    QueryResult result = QueryAndCompare(sql);
    statements = std::max(statements, result.intensional.size());
    empty_proof |= result.intensional.empty_proof().has_value();
  }
  // The large combined answers and a provably empty one were rendered.
  EXPECT_GT(statements, 500u);
  EXPECT_TRUE(empty_proof);
}

TEST_F(RenderDifferentialTest, ExtensionalOnlyAnswer) {
  ASSERT_NE(fleet_, nullptr);
  fault::ScopedFailpoint fp("infer.fire",
                            "error(unavailable,inference engine offline)");
  ASSERT_TRUE(fp.ok());
  QueryResult result = QueryAndCompare(
      "SELECT Name FROM BATTLESHIP WHERE Displacement >= 60000");
  ASSERT_FALSE(result.degradations.empty());
  EXPECT_EQ(result.degradations[0].action,
            fault::DegradeAction::kExtensionalOnly);
}

TEST_F(RenderDifferentialTest, SkippedRuleAnswer) {
  ASSERT_NE(fleet_, nullptr);
  fault::ScopedFailpoint fp("infer.match",
                            "once:error(internal,rule match fault)");
  ASSERT_TRUE(fp.ok());
  QueryResult result = QueryAndCompare(
      "SELECT Id, Name, Type, Displacement FROM BATTLESHIP "
      "WHERE Name = 'Hull 150'");
  bool skipped = false;
  for (const fault::DegradationEvent& e : result.degradations) {
    skipped |= e.action == fault::DegradeAction::kSkipRule;
  }
  EXPECT_TRUE(skipped);
  EXPECT_FALSE(result.intensional.empty());
}

TEST_F(RenderDifferentialTest, RewrittenAnswer) {
  ASSERT_NE(fleet_, nullptr);
  fleet_->processor().set_sqo_mode(SqoMode::kOn);
  QueryResult disjoint = QueryAndCompare(
      "SELECT Name FROM BATTLESHIP WHERE Type = 'SSN' "
      "AND Displacement > 99999");
  QueryResult implied = QueryAndCompare(
      "SELECT Name FROM BATTLESHIP WHERE Type = 'SSN' "
      "AND Displacement > 1000");
  fleet_->processor().set_sqo_mode(SqoMode::kOff);
  EXPECT_FALSE(disjoint.rewrites.empty());
  EXPECT_FALSE(implied.rewrites.empty());
}

}  // namespace
}  // namespace iqs
