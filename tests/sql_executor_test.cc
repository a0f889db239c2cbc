#include "sql/sql_executor.h"

#include "gtest/gtest.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::ColumnText;

class SqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_util::ShipDatabaseOrFail();
    ASSERT_TRUE(db_);
    executor_ = std::make_unique<SqlExecutor>(db_.get());
  }

  Relation Run(const std::string& sql) {
    auto result = executor_->ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : Relation();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlExecutor> executor_;
};

TEST_F(SqlExecutorTest, SelectStarSingleTable) {
  Relation out = Run("SELECT * FROM TYPE");
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.schema().size(), 2u);
}

TEST_F(SqlExecutorTest, ProjectionNamesUseBaseNames) {
  Relation out = Run("SELECT SUBMARINE.Id, SUBMARINE.Name FROM SUBMARINE");
  EXPECT_EQ(out.schema().attribute(0).name, "Id");
  EXPECT_EQ(out.schema().attribute(1).name, "Name");
}

TEST_F(SqlExecutorTest, CollidingProjectionNamesStayQualified) {
  Relation out =
      Run("SELECT SUBMARINE.Class, CLASS.Class FROM SUBMARINE, CLASS "
          "WHERE SUBMARINE.Class = CLASS.Class");
  EXPECT_EQ(out.schema().attribute(0).name, "SUBMARINE.Class");
  EXPECT_EQ(out.schema().attribute(1).name, "CLASS.Class");
}

TEST_F(SqlExecutorTest, WhereFiltersRows) {
  Relation out =
      Run("SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'");
  EXPECT_EQ(out.size(), 6u);
}

TEST_F(SqlExecutorTest, NumericLiteralCoercesToCharColumn) {
  // CLASS codes are CHAR[4]; an unquoted 0204 must compare as "0204".
  Relation out = Run("SELECT Id FROM SUBMARINE WHERE Class = 0204");
  EXPECT_EQ(out.size(), 6u);
}

TEST_F(SqlExecutorTest, PaperExample1Extensional) {
  Relation out = Run(Example1Sql());
  ASSERT_EQ(out.size(), 2u);
  std::vector<std::string> ids = ColumnText(out, "Id");
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"SSBN130", "SSBN730"}));
  EXPECT_EQ(ColumnText(out, "Type"),
            (std::vector<std::string>{"SSBN", "SSBN"}));
}

TEST_F(SqlExecutorTest, PaperExample2Extensional) {
  Relation out = Run(Example2Sql());
  EXPECT_EQ(out.size(), 7u);
  std::vector<std::string> classes = ColumnText(out, "Class");
  std::sort(classes.begin(), classes.end());
  EXPECT_EQ(classes, (std::vector<std::string>{"0101", "0102", "0102", "0103",
                                               "0103", "0103", "1301"}));
}

TEST_F(SqlExecutorTest, PaperExample3Extensional) {
  Relation out = Run(Example3Sql());
  ASSERT_EQ(out.size(), 4u);
  std::vector<std::string> names = ColumnText(out, "Name");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"Bonefish", "Robert E. Lee",
                                      "Seadragon", "Snook"}));
}

TEST_F(SqlExecutorTest, ThreeWayJoinThroughInstall) {
  Relation out =
      Run("SELECT SUBMARINE.Name, SONAR.SonarType FROM SUBMARINE, INSTALL, "
          "SONAR WHERE SUBMARINE.Id = INSTALL.Ship AND INSTALL.Sonar = "
          "SONAR.Sonar AND SONAR.SonarType = 'TACTAS'");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value::String("Bremerton"));
}

TEST_F(SqlExecutorTest, AliasesWork) {
  Relation out =
      Run("SELECT s.Name FROM SUBMARINE s, CLASS c "
          "WHERE s.Class = c.Class AND c.Displacement > 8000");
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(SqlExecutorTest, SelfJoinViaAliases) {
  // Ships sharing a class with SSN671 (Narwhal, class 0203): only itself.
  Relation out =
      Run("SELECT b.Id FROM SUBMARINE a, SUBMARINE b "
          "WHERE a.Class = b.Class AND a.Id = 'SSN671'");
  EXPECT_EQ(ColumnText(out, "Id"), (std::vector<std::string>{"SSN671"}));
}

TEST_F(SqlExecutorTest, CrossProductWhenNoJoinCondition) {
  Relation out = Run("SELECT * FROM TYPE, SONAR");
  EXPECT_EQ(out.size(), 16u);  // 2 * 8
}

TEST_F(SqlExecutorTest, DistinctAndOrderBy) {
  Relation out = Run(
      "SELECT DISTINCT SUBMARINE.Class FROM SUBMARINE ORDER BY "
      "SUBMARINE.Class DESC");
  ASSERT_EQ(out.size(), 13u);
  EXPECT_EQ(out.row(0).at(0), Value::String("1301"));
  EXPECT_EQ(out.row(12).at(0), Value::String("0101"));
}

TEST_F(SqlExecutorTest, OrderByColumnNotInSelectList) {
  Relation out =
      Run("SELECT ClassName FROM CLASS ORDER BY CLASS.Displacement DESC");
  ASSERT_GT(out.size(), 0u);
  EXPECT_EQ(out.row(0).at(0), Value::String("Typhoon"));
}

TEST_F(SqlExecutorTest, BetweenOrAndNot) {
  Relation between = Run(
      "SELECT Class FROM CLASS WHERE Displacement BETWEEN 7250 AND 30000");
  EXPECT_EQ(between.size(), 4u);
  Relation either = Run(
      "SELECT Class FROM CLASS WHERE Class = '0101' OR Class = '1301'");
  EXPECT_EQ(either.size(), 2u);
  Relation negated =
      Run("SELECT Class FROM CLASS WHERE NOT Type = 'SSN'");
  EXPECT_EQ(negated.size(), 4u);
}

TEST_F(SqlExecutorTest, Errors) {
  EXPECT_FALSE(executor_->ExecuteSql("SELECT * FROM NOPE").ok());
  EXPECT_FALSE(executor_->ExecuteSql("SELECT Nope FROM TYPE").ok());
  // Ambiguous unqualified column across two tables.
  EXPECT_FALSE(
      executor_
          ->ExecuteSql("SELECT Class FROM SUBMARINE, CLASS "
                       "WHERE SUBMARINE.Class = CLASS.Class")
          .ok());
  // Duplicate alias.
  EXPECT_FALSE(
      executor_->ExecuteSql("SELECT * FROM TYPE t, SONAR t").ok());
  // Type mismatch: comparing an integer column with a non-numeric string.
  EXPECT_FALSE(
      executor_
          ->ExecuteSql("SELECT * FROM CLASS WHERE Displacement = 'abc'")
          .ok());
}

TEST_F(SqlExecutorTest, ExecutionStatsMatchFixtureCardinalities) {
  // SUBMARINE alone: all 24 ships load, 6 survive the filter.
  Run("SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'");
  EXPECT_EQ(executor_->last_stats().base_rows_loaded, 24u);
  EXPECT_EQ(executor_->last_stats().rows_returned, 6u);
  // Example 1 joins SUBMARINE (24) with CLASS (13): 37 base rows.
  Run(Example1Sql());
  EXPECT_EQ(executor_->last_stats().base_rows_loaded, 37u);
  EXPECT_EQ(executor_->last_stats().rows_returned, 2u);
}

TEST_F(SqlExecutorTest, QueryStatsFlowThroughTheAssembledSystem) {
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig config;
  config.min_support = 3;
  ASSERT_TRUE(system->Induce(config).ok());
  auto result = system->Query(Example1Sql());
  ASSERT_TRUE(result.ok()) << result.status();
  const QueryStats& stats = result->stats;
  EXPECT_EQ(stats.rows_scanned, 37u);   // SUBMARINE (24) + CLASS (13)
  EXPECT_EQ(stats.rows_returned, 2u);   // the two SSBN ships
  EXPECT_EQ(stats.rules_fired, 3u);     // induced rules produced the answer
  // Every pipeline stage ran, and round-up timing makes it visible.
  EXPECT_GE(stats.parse_micros, 1);
  EXPECT_GE(stats.execute_micros, 1);
  EXPECT_GE(stats.infer_micros, 1);
  EXPECT_GE(stats.total_micros, stats.parse_micros);
}

}  // namespace
}  // namespace iqs
