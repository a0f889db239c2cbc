// Assorted edge cases pinning behaviours that regressions would
// silently change: QUEL target naming and executor corner cases.

#include "gtest/gtest.h"
#include "quel/quel_session.h"
#include "sql/sql_executor.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::MakeRelation;

TEST(EdgeCasesTest, QuelDuplicateTargetNamesRejected) {
  ASSERT_OK_AND_ASSIGN(auto db, BuildShipDatabase());
  QuelSession session(db.get());
  ASSERT_OK(session.ExecuteText("range of a is SUBMARINE").status());
  ASSERT_OK(session.ExecuteText("range of b is SUBMARINE").status());
  // Both targets default to the name "Id".
  EXPECT_FALSE(session.ExecuteText("retrieve (a.Id, b.Id)").ok());
  // A rename disambiguates.
  ASSERT_OK_AND_ASSIGN(auto result,
                       session.ExecuteText(
                           "retrieve (a.Id, other = b.Id) where a.Class = "
                           "b.Class and a.Id != b.Id"));
  // Pairs of distinct same-class ships.
  EXPECT_GT(result.relation.size(), 0u);
  EXPECT_EQ(result.relation.schema().attribute(1).name, "other");
}

TEST(EdgeCasesTest, SqlDistinctStarAndOrderInteraction) {
  ASSERT_OK_AND_ASSIGN(auto db, BuildShipDatabase());
  SqlExecutor executor(db.get());
  // DISTINCT over a join with duplicate-producing projection.
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      executor.ExecuteSql("SELECT DISTINCT CLASS.Type FROM SUBMARINE, CLASS "
                          "WHERE SUBMARINE.Class = CLASS.Class "
                          "ORDER BY CLASS.Type DESC"));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.row(0).at(0), Value::String("SSN"));
}

TEST(EdgeCasesTest, EmptyRelationQueriesWork) {
  Database db;
  ASSERT_OK(db.CreateRelation("EMPTY", Schema({{"x", ValueType::kInt, false},
                                               {"y", ValueType::kInt, false}}))
                .status());
  SqlExecutor executor(&db);
  ASSERT_OK_AND_ASSIGN(Relation out,
                       executor.ExecuteSql("SELECT x FROM EMPTY WHERE x > 0 "
                                           "ORDER BY x"));
  EXPECT_EQ(out.size(), 0u);
  ASSERT_OK_AND_ASSIGN(
      Relation agg, executor.ExecuteSql("SELECT COUNT(*), AVG(x) FROM EMPTY"));
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg.row(0).at(0), Value::Int(0));
  EXPECT_TRUE(agg.row(0).at(1).is_null());
}

TEST(EdgeCasesTest, JoinConditionAlsoUsableAsFilter) {
  // A degenerate self-referential equality (col = col within one table)
  // is not a join condition; it must behave as an always-true filter for
  // non-null values.
  ASSERT_OK_AND_ASSIGN(auto db, BuildShipDatabase());
  SqlExecutor executor(db.get());
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      executor.ExecuteSql(
          "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Id = SUBMARINE.Id"));
  EXPECT_EQ(out.size(), 24u);
}

TEST(EdgeCasesTest, WhereOverJoinedColumnsAfterJoin) {
  // Restrictions referencing columns from two different tables in one
  // comparison (non-equi theta condition) are applied post-join.
  ASSERT_OK_AND_ASSIGN(auto db, BuildShipDatabase());
  SqlExecutor executor(db.get());
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      executor.ExecuteSql(
          "SELECT SUBMARINE.Id FROM SUBMARINE, CLASS WHERE SUBMARINE.Class "
          "= CLASS.Class AND SUBMARINE.Id > CLASS.ClassName"));
  // Cross-check against a hand-rolled nested loop.
  ASSERT_OK_AND_ASSIGN(const Relation* ships, db->Get("SUBMARINE"));
  ASSERT_OK_AND_ASSIGN(const Relation* classes, db->Get("CLASS"));
  size_t expected = 0;
  for (const Tuple& ship : ships->rows()) {
    for (const Tuple& cls : classes->rows()) {
      if (ship.at(2) == cls.at(0) && ship.at(0) > cls.at(1)) ++expected;
    }
  }
  EXPECT_EQ(out.size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST(EdgeCasesTest, RelationSortStability) {
  Relation rel = MakeRelation("R",
                              Schema({{"k", ValueType::kInt, false},
                                      {"tag", ValueType::kString, false}}),
                              {{"1", "first"}, {"1", "second"},
                               {"0", "zero"}});
  ASSERT_OK(rel.SortBy({"k"}));
  EXPECT_EQ(rel.row(0).at(1), Value::String("zero"));
  EXPECT_EQ(rel.row(1).at(1), Value::String("first"));
  EXPECT_EQ(rel.row(2).at(1), Value::String("second"));
}

}  // namespace
}  // namespace iqs
