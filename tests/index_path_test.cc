// The registered-index fast path: identical answers with fewer base
// rows materialized, conservative invalidation on mutation.

#include "gtest/gtest.h"
#include "sql/sql_executor.h"
#include "testbed/fleet_generator.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

std::vector<std::string> SortedRows(const Relation& rel) {
  std::vector<std::string> out;
  for (const Tuple& t : rel.rows()) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

class IndexPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = BuildShipDatabase();
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(IndexPathTest, RegistryBasics) {
  EXPECT_EQ(db_->GetIndex("CLASS", "Displacement"), nullptr);
  ASSERT_OK(db_->CreateIndex("CLASS", "Displacement"));
  EXPECT_NE(db_->GetIndex("class", "displacement"), nullptr);
  EXPECT_EQ(db_->IndexedAttributes("CLASS"),
            (std::vector<std::string>{"Displacement"}));
  EXPECT_EQ(db_->CreateIndex("GHOST", "x").code(), StatusCode::kNotFound);
  EXPECT_FALSE(db_->CreateIndex("CLASS", "Ghost").ok());
}

TEST_F(IndexPathTest, MutationInvalidates) {
  ASSERT_OK(db_->CreateIndex("CLASS", "Displacement"));
  ASSERT_OK_AND_ASSIGN(Relation * classes, db_->GetMutable("CLASS"));
  (void)classes;
  EXPECT_EQ(db_->GetIndex("CLASS", "Displacement"), nullptr);
  // Rebuild works.
  ASSERT_OK(db_->CreateIndex("CLASS", "Displacement"));
  ASSERT_OK(db_->Drop("CLASS"));
  EXPECT_EQ(db_->GetIndex("CLASS", "Displacement"), nullptr);
}

TEST_F(IndexPathTest, SameAnswersWithAndWithoutIndex) {
  const char* queries[] = {
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'",
      "SELECT Class FROM CLASS WHERE CLASS.Displacement > 7000",
      "SELECT Class FROM CLASS WHERE CLASS.Displacement BETWEEN 3000 AND "
      "7000",
      "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = "
      "CLASS.Class AND CLASS.Displacement > 8000",
      "SELECT Class FROM CLASS WHERE CLASS.Displacement < 2145",  // empty
  };
  SqlExecutor executor(db_.get());
  std::vector<std::vector<std::string>> before;
  for (const char* q : queries) {
    ASSERT_OK_AND_ASSIGN(Relation out, executor.ExecuteSql(q));
    EXPECT_EQ(executor.last_stats().index_prefiltered_tables, 0u) << q;
    before.push_back(SortedRows(out));
  }
  ASSERT_OK(db_->CreateIndex("CLASS", "Displacement"));
  ASSERT_OK(db_->CreateIndex("SUBMARINE", "Class"));
  for (size_t i = 0; i < std::size(queries); ++i) {
    ASSERT_OK_AND_ASSIGN(Relation out, executor.ExecuteSql(queries[i]));
    EXPECT_EQ(SortedRows(out), before[i]) << queries[i];
    // BETWEEN desugars to two conjuncts handled by the predicate, not
    // the prefilter; the others hit the index.
    if (i != 2) {
      EXPECT_GE(executor.last_stats().index_prefiltered_tables, 1u)
          << queries[i];
    }
  }
}

TEST_F(IndexPathTest, PrefilterReducesRowsLoaded) {
  SqlExecutor executor(db_.get());
  ASSERT_OK_AND_ASSIGN(
      Relation unindexed,
      executor.ExecuteSql("SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = "
                          "'0204'"));
  size_t full_scan = executor.last_stats().base_rows_loaded;
  EXPECT_EQ(full_scan, 24u);
  ASSERT_OK(db_->CreateIndex("SUBMARINE", "Class"));
  ASSERT_OK_AND_ASSIGN(
      Relation indexed,
      executor.ExecuteSql("SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = "
                          "'0204'"));
  EXPECT_EQ(executor.last_stats().base_rows_loaded, 6u);
  EXPECT_EQ(SortedRows(indexed), SortedRows(unindexed));
}

TEST_F(IndexPathTest, UnqualifiedColumnUsesIndexOfItsBoundTable) {
  SqlExecutor executor(db_.get());
  const char* join =
      "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = "
      "CLASS.Class AND Displacement > 8000";
  ASSERT_OK_AND_ASSIGN(Relation unindexed, executor.ExecuteSql(join));
  ASSERT_OK(db_->CreateIndex("CLASS", "Displacement"));
  ASSERT_OK_AND_ASSIGN(
      Relation single,
      executor.ExecuteSql("SELECT Class FROM CLASS WHERE Displacement > "
                          "8000"));
  EXPECT_EQ(executor.last_stats().index_prefiltered_tables, 1u);
  EXPECT_EQ(single.size(), 2u);
  // The binder resolves the unqualified column to CLASS, so the index
  // serves it in a join too.
  ASSERT_OK_AND_ASSIGN(Relation indexed, executor.ExecuteSql(join));
  EXPECT_EQ(executor.last_stats().index_prefiltered_tables, 1u);
  EXPECT_EQ(SortedRows(indexed), SortedRows(unindexed));
}

TEST_F(IndexPathTest, LargeFleetEquivalence) {
  ASSERT_OK_AND_ASSIGN(auto fleet, GenerateFleet(100, 21));
  SqlExecutor executor(fleet.get());
  const char* query =
      "SELECT Id FROM BATTLESHIP WHERE BATTLESHIP.Displacement >= 75700";
  ASSERT_OK_AND_ASSIGN(Relation plain, executor.ExecuteSql(query));
  ASSERT_OK(fleet->CreateIndex("BATTLESHIP", "Displacement"));
  ASSERT_OK_AND_ASSIGN(Relation fast, executor.ExecuteSql(query));
  EXPECT_EQ(SortedRows(plain), SortedRows(fast));
  EXPECT_EQ(executor.last_stats().index_prefiltered_tables, 1u);
  EXPECT_LT(executor.last_stats().base_rows_loaded, 1200u / 4);
}

}  // namespace
}  // namespace iqs
