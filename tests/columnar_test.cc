// Unit coverage for the columnar storage layer (DESIGN.md §14): the
// transpose round trip, zone-map contents, the batch scan (filtering and
// pruning), the epoch-keyed Database snapshot cache, and the columnar
// induction path's byte-identity against the row reference on
// hand-built relations. Labeled "columnar".

#include "relational/column_store.h"

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "induction/rule_induction.h"
#include "relational/algebra.h"
#include "relational/database.h"
#include "relational/predicate.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::MakeRelation;
using testing_util::RuleBodies;

Relation SmallRelation() {
  return MakeRelation("R",
                      Schema({{"K", ValueType::kInt, false},
                              {"S", ValueType::kString, false},
                              {"D", ValueType::kReal, false}}),
                      {{"1", "alpha", "1.5"},
                       {"2", "", "-0.25"},
                       {"3", "beta", "2.0"},
                       {"4", "gamma", "0.0"}});
}

// Spans several blocks: K ascending so zone maps are disjoint, S cycles,
// and every 7th D is null.
Relation MultiBlockRelation(size_t rows) {
  Relation rel("BIG", Schema({{"K", ValueType::kInt, false},
                              {"S", ValueType::kString, false},
                              {"D", ValueType::kReal, false}}));
  static const char* kTags[] = {"red", "green", "blue"};
  for (size_t i = 0; i < rows; ++i) {
    Tuple t({Value::Int(static_cast<int64_t>(i)),
             Value::String(kTags[i % 3]),
             i % 7 == 0 ? Value::Null()
                        : Value::Real(static_cast<double>(i) / 4.0)});
    rel.AppendUnchecked(std::move(t));
  }
  return rel;
}

TEST(ColumnarRelationTest, RoundTripIsByteIdentical) {
  for (const Relation& rel :
       {SmallRelation(), MultiBlockRelation(2 * kColumnarBlockRows + 37),
        Relation("EMPTY", Schema({{"X", ValueType::kInt, false}}))}) {
    ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
    EXPECT_EQ(cols.row_count(), rel.size());
    Relation back = cols.ToRelation();
    EXPECT_EQ(back.name(), rel.name());
    EXPECT_EQ(back.ToTable(), rel.ToTable());
    for (size_t r = 0; r < rel.size(); ++r) {
      EXPECT_EQ(cols.MaterializeRow(r).ToString(), rel.row(r).ToString());
    }
  }
}

TEST(ColumnarRelationTest, TypedStorageMatchesSchema) {
  ColumnarRelation cols = ColumnarRelation::FromRelation(SmallRelation());
  EXPECT_EQ(cols.column(0).storage(), Column::Storage::kInt);
  EXPECT_EQ(cols.column(1).storage(), Column::Storage::kString);
  EXPECT_EQ(cols.column(2).storage(), Column::Storage::kReal);
  EXPECT_EQ(cols.column(0).ints(), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(cols.column(2).reals(),
            (std::vector<double>{1.5, -0.25, 2.0, 0.0}));
}

TEST(ColumnarRelationTest, TypeMismatchedRowsDemoteToMixed) {
  // AppendUnchecked can smuggle a string into an Int column; the whole
  // column falls back to exact Values rather than corrupting a cast.
  Relation rel("M", Schema({{"X", ValueType::kInt, false}}));
  rel.AppendUnchecked(Tuple({Value::Int(1)}));
  rel.AppendUnchecked(Tuple({Value::String("oops")}));
  ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
  EXPECT_EQ(cols.column(0).storage(), Column::Storage::kMixed);
  EXPECT_EQ(cols.column(0).Get(0), Value::Int(1));
  EXPECT_EQ(cols.column(0).Get(1), Value::String("oops"));
  EXPECT_EQ(cols.ToRelation().ToTable(), rel.ToTable());
}

TEST(ColumnarRelationTest, ZoneMapsCoverEachBlock) {
  const size_t rows = 2 * kColumnarBlockRows + 100;
  Relation rel = MultiBlockRelation(rows);
  ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
  ASSERT_EQ(cols.block_count(), 3u);
  for (size_t b = 0; b < cols.block_count(); ++b) {
    auto [first, last] = cols.BlockRange(b);
    const BlockStats& st = cols.stats(0, b);
    EXPECT_EQ(st.min, Value::Int(static_cast<int64_t>(first)));
    EXPECT_EQ(st.max, Value::Int(static_cast<int64_t>(last - 1)));
    EXPECT_EQ(st.non_null, last - first);
    // D has a null every 7th row; non_null counts only the rest.
    size_t nulls = 0;
    for (size_t r = first; r < last; ++r) {
      if (r % 7 == 0) ++nulls;
    }
    EXPECT_EQ(cols.stats(2, b).non_null, (last - first) - nulls);
  }
}

TEST(ColumnarRelationTest, ColumnMinMaxMatchesActiveDomain) {
  Relation rel = MultiBlockRelation(kColumnarBlockRows + 500);
  ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
  for (size_t i = 0; i < rel.schema().size(); ++i) {
    const std::string& attr = rel.schema().attribute(i).name;
    ASSERT_OK_AND_ASSIGN(auto expected, rel.ActiveDomain(attr));
    ASSERT_OK_AND_ASSIGN(auto actual, cols.ColumnMinMax(i));
    EXPECT_EQ(actual.first, expected.first) << attr;
    EXPECT_EQ(actual.second, expected.second) << attr;
  }
  // All-null column: same NotFound either way.
  Relation nulls("N", Schema({{"X", ValueType::kInt, false}}));
  nulls.AppendUnchecked(Tuple({Value::Null()}));
  ColumnarRelation ncols = ColumnarRelation::FromRelation(nulls);
  auto via_rows = nulls.ActiveDomain("X");
  auto via_cols = ncols.ColumnMinMax(0);
  ASSERT_FALSE(via_rows.ok());
  ASSERT_FALSE(via_cols.ok());
  EXPECT_EQ(via_cols.status().ToString(), via_rows.status().ToString());
}

// ---- the batch scan --------------------------------------------------

// Row reference: the rows for which every condition holds, by
// ApplyCompare over the row relation.
std::vector<uint32_t> RowScan(const Relation& rel,
                              const std::vector<ColumnCondition>& conds) {
  std::vector<uint32_t> out;
  for (size_t r = 0; r < rel.size(); ++r) {
    bool keep = true;
    for (const ColumnCondition& c : conds) {
      Result<bool> holds =
          ApplyCompare(c.op, rel.row(r).at(c.column), c.constant);
      EXPECT_TRUE(holds.ok()) << holds.status().ToString();
      keep = keep && holds.ok() && *holds;
    }
    if (keep) out.push_back(static_cast<uint32_t>(r));
  }
  return out;
}

void ExpectScanMatchesRows(const Relation& rel,
                           const std::vector<ColumnCondition>& conds) {
  ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
  ColumnarScanStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> columnar,
                       ColumnarScan(cols, conds, nullptr, &stats));
  EXPECT_EQ(columnar, RowScan(rel, conds));
}

TEST(ColumnarScanTest, FiltersExactlyLikeRowEvaluation) {
  Relation rel = MultiBlockRelation(2 * kColumnarBlockRows + 77);
  ExpectScanMatchesRows(rel,
                        {{1, CompareOp::kEq, Value::String("green")}});
  ExpectScanMatchesRows(rel, {{0, CompareOp::kGe, Value::Int(1000)},
                              {2, CompareOp::kLt, Value::Real(300.0)}});
  // An integer constant against a REAL column compares numerically.
  ExpectScanMatchesRows(rel, {{2, CompareOp::kNe, Value::Int(7)}});
  // Null constant admits nothing.
  ExpectScanMatchesRows(rel, {{0, CompareOp::kEq, Value::Null()}});
  // LIKE over a string column, with '%' and '_'.
  ExpectScanMatchesRows(rel,
                        {{1, CompareOp::kLike, Value::String("gre_n")}});
  // The residual runs over the survivors of the conditions.
  ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
  PredicatePtr residual = MakeCompare(CompareOp::kEq, MakeColumn(1),
                                      MakeConstant(Value::String("blue")));
  ColumnarScanStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<uint32_t> hits,
      ColumnarScan(cols, {{0, CompareOp::kLt, Value::Int(10)}},
                   residual.get(), &stats));
  EXPECT_EQ(hits, (std::vector<uint32_t>{2, 5, 8}));
}

TEST(ColumnarScanTest, ZoneMapsPruneDisjointBlocks) {
  Relation rel = MultiBlockRelation(4 * kColumnarBlockRows);
  ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
  // K is ascending, so a narrow band touches exactly one block.
  ColumnarScanStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<uint32_t> hits,
      ColumnarScan(cols,
                   {{0, CompareOp::kGe, Value::Int(10)},
                    {0, CompareOp::kLe, Value::Int(20)}},
                   nullptr, &stats));
  EXPECT_EQ(hits.size(), 11u);
  EXPECT_EQ(stats.blocks_total, 4u);
  EXPECT_EQ(stats.blocks_pruned, 3u);
  // An off-domain point prunes everything.
  ColumnarScanStats none;
  ASSERT_OK_AND_ASSIGN(
      hits,
      ColumnarScan(cols, {{0, CompareOp::kEq, Value::Int(-5)}}, nullptr,
                   &none));
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(none.blocks_pruned, none.blocks_total);
}

TEST(ColumnarScanTest, FirstErrorMatchesRowOrderAndText) {
  // Values appended outside their declared type demote X to kMixed, so
  // a residual over it can fail. The first failure in row order must
  // reach the caller with ApplyCompare's text, though the blocks run in
  // parallel and a later block fails differently.
  Relation rel("M", Schema({{"K", ValueType::kInt, false},
                            {"X", ValueType::kInt, false}}));
  ASSERT_OK_AND_ASSIGN(Date d, Date::FromString("2026-01-01"));
  for (int64_t i = 0; i < static_cast<int64_t>(3 * kColumnarBlockRows);
       ++i) {
    Value x = i == 1500   ? Value::OfDate(d)
              : i == 2600 ? Value::String("oops")
                          : Value::Int(i);
    rel.AppendUnchecked(Tuple({Value::Int(i), std::move(x)}));
  }
  ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
  ASSERT_EQ(cols.column(1).storage(), Column::Storage::kMixed);
  PredicatePtr residual = MakeCompare(CompareOp::kGt, MakeColumn(1),
                                      MakeConstant(Value::Int(5)));
  ColumnarScanStats stats;
  auto scan = ColumnarScan(cols, {{0, CompareOp::kGe, Value::Int(1000)}},
                           residual.get(), &stats);
  Status expected = Status::Ok();
  for (size_t r = 1000; r < rel.size() && expected.ok(); ++r) {
    expected = residual->Eval(rel.row(r)).status();
  }
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().ToString(), expected.ToString());
  EXPECT_EQ(expected.message(), "cannot compare date with integer");
}

// ---- the Database snapshot cache -------------------------------------

TEST(ColumnarSnapshotTest, CachesPerEpochAndRetiresOnMutation) {
  Database db;
  ASSERT_OK(db.AddRelation(SmallRelation()));
  ASSERT_OK_AND_ASSIGN(auto first, db.ColumnarSnapshot("R"));
  ASSERT_OK_AND_ASSIGN(auto second, db.ColumnarSnapshot("R"));
  EXPECT_EQ(first.get(), second.get());  // same epoch, same snapshot
  ASSERT_OK_AND_ASSIGN(Relation * mut, db.GetMutable("R"));
  ASSERT_OK(mut->Insert(Tuple(
      {Value::Int(9), Value::String("delta"), Value::Real(9.0)})));
  ASSERT_OK_AND_ASSIGN(auto third, db.ColumnarSnapshot("R"));
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(third->row_count(), 5u);
  // The old snapshot is still valid for readers that hold it.
  EXPECT_EQ(first->row_count(), 4u);
  EXPECT_FALSE(db.ColumnarSnapshot("NO_SUCH").ok());
}

TEST(ColumnarSnapshotTest, DropFreesTheCachedSnapshot) {
  Database db;
  ASSERT_OK(db.AddRelation(SmallRelation()));
  ASSERT_OK_AND_ASSIGN(auto held, db.ColumnarSnapshot("R"));
  EXPECT_EQ(held.use_count(), 2);  // the reader and the cache
  ASSERT_OK(db.Drop("R"));
  EXPECT_EQ(held.use_count(), 1);  // the reader alone
  EXPECT_EQ(held->row_count(), 4u);
  EXPECT_FALSE(db.ColumnarSnapshot("R").ok());
}

// ---- columnar induction ----------------------------------------------

void ExpectInductionIdentical(const Relation& rel, const std::string& x,
                              const std::string& y,
                              const InductionConfig& config) {
  InductionStats row_stats, col_stats;
  auto rows = InduceSchemeRowsWithStats(rel, x, y, config, &row_stats);
  auto cols = InduceSchemeColumnarWithStats(
      ColumnarRelation::FromRelation(rel), x, y, config, &col_stats);
  ASSERT_EQ(rows.ok(), cols.ok());
  if (!rows.ok()) {
    EXPECT_EQ(cols.status().ToString(), rows.status().ToString());
    return;
  }
  ASSERT_EQ(cols->size(), rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*cols)[i].Body(), (*rows)[i].Body());
    EXPECT_EQ((*cols)[i].scheme, (*rows)[i].scheme);
    EXPECT_EQ((*cols)[i].source_relation, (*rows)[i].source_relation);
    EXPECT_EQ((*cols)[i].support, (*rows)[i].support);
    EXPECT_EQ((*cols)[i].family_complete, (*rows)[i].family_complete);
  }
  EXPECT_EQ(col_stats.distinct_pairs, row_stats.distinct_pairs);
  EXPECT_EQ(col_stats.inconsistent_values, row_stats.inconsistent_values);
  EXPECT_EQ(col_stats.runs, row_stats.runs);
  EXPECT_EQ(col_stats.pruned, row_stats.pruned);
}

TEST(ColumnarInductionTest, MatchesRowReferenceOnHandCases) {
  InductionConfig config;
  // The §5.2.1 toy: runs, an inconsistent X, both run policies, pruning.
  Relation toy = MakeRelation("TOY",
                              Schema({{"X", ValueType::kInt, false},
                                      {"Y", ValueType::kString, false}}),
                              {{"1", "a"},
                               {"2", "a"},
                               {"3", "b"},
                               {"4", "a"},
                               {"5", "a"},
                               {"6", "a"},
                               {"7", "c"},
                               {"7", "d"}});
  for (RunPolicy policy :
       {RunPolicy::kDatabaseDomain, RunPolicy::kRemainingDomain}) {
    for (bool prune : {false, true}) {
      config.run_policy = policy;
      config.prune = prune;
      config.min_support = 2;
      ExpectInductionIdentical(toy, "X", "Y", config);
    }
  }
  config = InductionConfig();
  // Unknown attribute: identical error text.
  ExpectInductionIdentical(toy, "NOPE", "Y", config);
  // Nulls on either side drop the instance.
  Relation nulls("N", Schema({{"X", ValueType::kInt, false},
                              {"Y", ValueType::kString, false}}));
  nulls.AppendUnchecked(Tuple({Value::Int(1), Value::String("a")}));
  nulls.AppendUnchecked(Tuple({Value::Null(), Value::String("b")}));
  nulls.AppendUnchecked(Tuple({Value::Int(2), Value::Null()}));
  nulls.AppendUnchecked(Tuple({Value::Int(3), Value::String("a")}));
  ExpectInductionIdentical(nulls, "X", "Y", config);
}

TEST(ColumnarInductionTest, RepresentativeSpellingsMatchTheRowPath) {
  // Int 5 and Real 5.0 compare equal but render differently; both paths
  // must keep the first-row spelling in rule bounds. Same for the Y
  // side and for -0.0 vs 0.0.
  Relation rel("SPELL", Schema({{"X", ValueType::kReal, false},
                                {"Y", ValueType::kReal, false}}));
  rel.AppendUnchecked(Tuple({Value::Int(5), Value::Real(1.0)}));
  rel.AppendUnchecked(Tuple({Value::Real(5.0), Value::Real(1.0)}));
  rel.AppendUnchecked(Tuple({Value::Real(6.5), Value::Int(1)}));
  rel.AppendUnchecked(Tuple({Value::Real(-0.0), Value::Real(1.0)}));
  rel.AppendUnchecked(Tuple({Value::Real(0.0), Value::Real(1.0)}));
  InductionConfig config;
  config.prune = false;
  ExpectInductionIdentical(rel, "X", "Y", config);
  ExpectInductionIdentical(rel, "Y", "X", config);
}

TEST(ColumnarInductionTest, EntryPointTransposesAndMatchesTheRowReference) {
  // InduceSchemeWithStats transposes a row relation on the fly.
  Relation toy = MakeRelation("TOY",
                              Schema({{"X", ValueType::kInt, false},
                                      {"Y", ValueType::kString, false}}),
                              {{"1", "a"}, {"2", "a"}, {"3", "b"}});
  InductionConfig config;
  config.prune = false;
  InductionStats stats;
  auto rows = InduceSchemeRowsWithStats(toy, "X", "Y", config, &stats);
  auto cols = InduceSchemeWithStats(toy, "X", "Y", config, &stats);
  ASSERT_OK(rows.status());
  ASSERT_OK(cols.status());
  EXPECT_EQ(RuleBodies(*cols), RuleBodies(*rows));
}

}  // namespace
}  // namespace iqs
