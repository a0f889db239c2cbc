// Row-vs-columnar differential harness (DESIGN.md §14): every query in
// the golden corpus and a seeded fuzz sweep runs twice against the same
// system — once with the columnar path disabled, once enabled — and the
// answers must be byte-identical, error text included. The same
// contract is held for QUEL sessions (including the wide synthetic
// relation that spans many blocks, where zone-map pruning must fire)
// and for rule induction over the full ship schema. A divergence dumps
// the query so the failure is diagnosable from the log alone.
// Labeled "columnar".

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "gtest/gtest.h"
#include "induction/ils.h"
#include "induction/rule_induction.h"
#include "quel/quel_session.h"
#include "relational/column_store.h"
#include "sql/sqo_rewrite.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

struct RunOutcome {
  bool ok = false;
  std::string error;  // status text when !ok
  std::string table;  // extensional rows when ok
};

class ColumnarDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = testing_util::ShipSystemOrFail().release();
    InductionConfig config;
    config.min_support = 3;
    ASSERT_OK(system_->Induce(config));
  }

  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  void TearDown() override {
    SetColumnarEnabled(true);
    system_->processor().cache().Clear();
  }

  static RunOutcome RunWith(bool columnar, const std::string& sql) {
    SetColumnarEnabled(columnar);
    // The answer cache is keyed by SQL alone, so clear between modes to
    // make both runs take the cold path.
    system_->processor().cache().Clear();
    auto result = system_->Query(sql);
    RunOutcome out;
    out.ok = result.ok();
    if (!out.ok) {
      out.error = result.status().ToString();
      return out;
    }
    out.table = result->extensional.ToTable();
    return out;
  }

  static void ExpectEquivalent(const std::string& sql) {
    RunOutcome rows = RunWith(false, sql);
    RunOutcome cols = RunWith(true, sql);
    EXPECT_EQ(rows.ok, cols.ok)
        << "status diverged for: " << sql << "\n  rows: "
        << (rows.ok ? "ok" : rows.error) << "\n  cols: "
        << (cols.ok ? "ok" : cols.error);
    if (rows.ok && cols.ok) {
      EXPECT_EQ(rows.table, cols.table)
          << "answer diverged for: " << sql << "\n-- row path --\n"
          << rows.table << "-- columnar path --\n" << cols.table;
    } else if (!rows.ok && !cols.ok) {
      EXPECT_EQ(rows.error, cols.error) << "error text diverged for: " << sql;
    }
  }

  static IqsSystem* system_;
};

IqsSystem* ColumnarDifferentialTest::system_ = nullptr;

// Hand-picked queries over the ship schema: single-table WHEREs the
// fast path takes, shapes it must decline (joins, no WHERE, virtual-ish
// errors), LIKE patterns, type errors whose text must not change, and
// aggregates fed by a filtered scan.
const std::vector<std::string>& GoldenCorpus() {
  static const std::vector<std::string>* corpus =
      new std::vector<std::string>{
          // Fast-path shapes: one table, conjunctive WHERE.
          "SELECT Id FROM SUBMARINE WHERE Class = '0204'",
          "SELECT Name FROM SUBMARINE WHERE Class = '0204' AND Id <> 'x'",
          "SELECT ClassName FROM CLASS WHERE Type = 'SSBN'",
          "SELECT ClassName FROM CLASS WHERE Displacement > 8000",
          "SELECT ClassName FROM CLASS WHERE Displacement BETWEEN 1000 "
          "AND 30000",
          "SELECT Class FROM CLASS WHERE Displacement >= 16600 "
          "AND Type = 'SSBN'",
          // Literal on the left: mirrored op, same answer and errors.
          "SELECT ClassName FROM CLASS WHERE 8000 < Displacement",
          // Off-domain constants: empty answer, fully pruned.
          "SELECT ClassName FROM CLASS WHERE Displacement > 99999",
          "SELECT Id FROM SUBMARINE WHERE Class = '9999'",
          // LIKE, with '%' and '_'.
          "SELECT Name FROM SUBMARINE WHERE Name LIKE 'Ty%'",
          "SELECT ClassName FROM CLASS WHERE ClassName LIKE '%o_'",
          // Type error: the message must keep the row path's operand
          // order.
          "SELECT Name FROM SUBMARINE WHERE Name > 5",
          "SELECT Name FROM SUBMARINE WHERE 5 < Name",
          // Declined shapes: joins, OR, no WHERE.
          "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
          "WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Type = 'SSBN'",
          "SELECT Id FROM SUBMARINE WHERE Class = '0204' OR Class = '0101'",
          "SELECT Name FROM SUBMARINE",
          // Aggregates / DISTINCT / ORDER BY over a filtered scan.
          "SELECT Type, COUNT(*) FROM CLASS WHERE Displacement > 1000 "
          "GROUP BY Type",
          "SELECT DISTINCT Class FROM SUBMARINE WHERE Class = '0204'",
          "SELECT Name FROM SUBMARINE WHERE Class = '0204' "
          "ORDER BY Name DESC",
          "SELECT MIN(Displacement), MAX(Displacement) FROM CLASS "
          "WHERE Type = 'SSBN'",
          // Bind error: identical under both paths.
          "SELECT Id FROM SUBMARINE WHERE NoSuchColumn = '0204'",
      };
  return *corpus;
}

TEST_F(ColumnarDifferentialTest, GoldenCorpusIsAnswerPreserving) {
  for (const std::string& sql : GoldenCorpus()) {
    ExpectEquivalent(sql);
    if (HasFailure()) break;  // the divergence already dumped the query
  }
}

TEST_F(ColumnarDifferentialTest, ExplainSurfacesBatchScanAndPruning) {
  SetColumnarEnabled(true);
  system_->processor().cache().Clear();
  // An off-domain restriction: the only block is zone-map pruned, and
  // both the stats struct and the EXPLAIN text say so.
  auto pruned = system_->Query(
      "SELECT ClassName FROM CLASS WHERE Displacement > 99999");
  ASSERT_OK(pruned.status());
  EXPECT_EQ(pruned->extensional.size(), 0u);
  EXPECT_GE(pruned->stats.columnar_tables, 1u);
  EXPECT_GE(pruned->stats.columnar_blocks_total, 1u);
  EXPECT_EQ(pruned->stats.columnar_blocks_pruned,
            pruned->stats.columnar_blocks_total);
  EXPECT_NE(pruned->stats.ToString().find("columnar:"), std::string::npos);
  EXPECT_NE(pruned->stats.ToJson().find("\"columnar_blocks_pruned\""),
            std::string::npos);
  // rows_scanned stays the full relation size — pruning is reported in
  // its own counters, keeping the row path's accounting stable.
  auto kept = system_->Query(
      "SELECT ClassName FROM CLASS WHERE Displacement > 8000");
  ASSERT_OK(kept.status());
  EXPECT_GE(kept->stats.columnar_tables, 1u);
  EXPECT_GT(kept->stats.rows_scanned, 0u);
  // With the toggle off, the columnar counters stay zero.
  SetColumnarEnabled(false);
  system_->processor().cache().Clear();
  auto off = system_->Query(
      "SELECT ClassName FROM CLASS WHERE Displacement > 8000");
  ASSERT_OK(off.status());
  EXPECT_EQ(off->stats.columnar_tables, 0u);
  EXPECT_EQ(off->extensional.ToTable(), kept->extensional.ToTable());
}

TEST_F(ColumnarDifferentialTest, ComposesWithSemanticRewriteBounds) {
  // PR 7's rule-synthesized BETWEEN bounds feed the same extraction the
  // hand-written ranges do; with sqo on, both paths must still agree.
  for (bool columnar : {false, true}) {
    SetColumnarEnabled(columnar);
    system_->processor().cache().Clear();
    system_->processor().set_sqo_mode(SqoMode::kOn);
    auto result = system_->Query(
        "SELECT ClassName FROM CLASS WHERE Type = 'SSBN'");
    system_->processor().set_sqo_mode(SqoMode::kOff);
    ASSERT_OK(result.status());
    EXPECT_GT(result->extensional.size(), 0u);
    if (columnar) {
      EXPECT_GE(result->stats.columnar_tables, 1u);
    }
  }
  RunOutcome rows = RunWith(false,
                            "SELECT ClassName FROM CLASS WHERE "
                            "Type = 'SSBN' AND Displacement > 1000");
  RunOutcome cols = RunWith(true,
                            "SELECT ClassName FROM CLASS WHERE "
                            "Type = 'SSBN' AND Displacement > 1000");
  ASSERT_TRUE(rows.ok && cols.ok);
  EXPECT_EQ(rows.table, cols.table);
}

// SplitMix64-seeded conjunctive queries over the real schema, platform
// stable; a healthy fraction hit the fast path, the rest exercise the
// decline-and-fall-back seam.
class ShipQueryFuzzer {
 public:
  explicit ShipQueryFuzzer(uint64_t seed) : state_(seed) {}

  std::string Next() {
    const char* table = Pick(2) == 0 ? "SUBMARINE" : "CLASS";
    std::string sql = "SELECT " + Column(table) + " FROM " + table +
                      " WHERE ";
    const size_t conjuncts = 1 + Pick(3);
    for (size_t i = 0; i < conjuncts; ++i) {
      if (i > 0) sql += " AND ";
      sql += Conjunct(table);
    }
    return sql;
  }

 private:
  uint64_t NextRaw() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Pick(size_t n) { return static_cast<size_t>(NextRaw() % n); }

  std::string Column(const char* table) {
    if (std::string(table) == "SUBMARINE") {
      static const char* kCols[] = {"Id", "Name", "Class"};
      return kCols[Pick(3)];
    }
    static const char* kCols[] = {"Class", "ClassName", "Type",
                                  "Displacement"};
    return kCols[Pick(4)];
  }

  std::string Conjunct(const char* table) {
    std::string col = Column(table);
    const bool numeric = col == "Displacement";
    if (!numeric && Pick(5) == 0) {
      static const char* kPatterns[] = {"'%o%'", "'T_phoon'", "'S%'",
                                        "'____'", "'%'"};
      return col + " LIKE " + kPatterns[Pick(5)];
    }
    static const char* kOps[] = {"=", "<", "<=", ">", ">=", "<>"};
    std::string op = kOps[Pick(6)];
    std::string rhs;
    if (numeric) {
      static const int kDisplacements[] = {0,    100,   1000,  8250,
                                           9000, 16600, 18700, 30000};
      rhs = std::to_string(kDisplacements[Pick(8)]);
      // Occasionally a type-confused literal, for error-text identity.
      if (Pick(10) == 0) rhs = "'SSBN'";
    } else if (col == "Class") {
      static const char* kClasses[] = {"'0101'", "'0204'", "'0215'",
                                       "'1301'", "'2101'", "'9999'"};
      rhs = kClasses[Pick(6)];
    } else if (col == "Type") {
      static const char* kTypes[] = {"'SSBN'", "'SSN'", "'SSGN'", "'XX'"};
      rhs = kTypes[Pick(4)];
    } else {
      static const char* kStrings[] = {"'Ohio'", "'Typhoon'", "'zzz'",
                                       "''", "7"};
      rhs = kStrings[Pick(5)];
    }
    // Sometimes put the literal on the left to cover the mirrored ops.
    if (Pick(6) == 0) return rhs + " " + op + " " + col;
    return col + " " + op + " " + rhs;
  }

  uint64_t state_;
};

TEST_F(ColumnarDifferentialTest, SeededFuzzCorpusIsAnswerPreserving) {
  ShipQueryFuzzer fuzzer(0xC01A7ABUL);
  for (int i = 0; i < 250; ++i) {
    ExpectEquivalent(fuzzer.Next());
    if (HasFailure()) break;
  }
}

// ---- QUEL sessions ----------------------------------------------------

class ColumnarQuelDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_util::ShipDatabaseOrFail();
    ASSERT_NE(db_, nullptr);
    // A wide synthetic relation spanning several blocks, so the QUEL
    // differential also covers multi-block scans and pruning: K
    // ascending, nulls sprinkled into D.
    Relation big("BIG", Schema({{"K", ValueType::kInt, false},
                                {"Tag", ValueType::kString, false},
                                {"D", ValueType::kReal, false}}));
    static const char* kTags[] = {"red", "green", "blue"};
    for (size_t i = 0; i < 3 * kColumnarBlockRows + 100; ++i) {
      big.AppendUnchecked(
          Tuple({Value::Int(static_cast<int64_t>(i)),
                 Value::String(kTags[i % 3]),
                 i % 11 == 0
                     ? Value::Null()
                     : Value::Real(static_cast<double>(i) / 2.0)}));
    }
    ASSERT_OK(db_->AddRelation(std::move(big)));
    session_ = std::make_unique<QuelSession>(db_.get());
    ASSERT_OK(session_->ExecuteText("range of s is SUBMARINE").status());
    ASSERT_OK(session_->ExecuteText("range of c is CLASS").status());
    ASSERT_OK(session_->ExecuteText("range of b is BIG").status());
  }

  void TearDown() override { SetColumnarEnabled(true); }

  RunOutcome RunWith(bool columnar, const std::string& text) {
    SetColumnarEnabled(columnar);
    auto result = session_->ExecuteText(text);
    RunOutcome out;
    out.ok = result.ok();
    if (!out.ok) {
      out.error = result.status().ToString();
      return out;
    }
    out.table = result->relation.ToTable();
    return out;
  }

  void ExpectEquivalent(const std::string& text) {
    RunOutcome rows = RunWith(false, text);
    RunOutcome cols = RunWith(true, text);
    EXPECT_EQ(rows.ok, cols.ok)
        << "status diverged for: " << text << "\n  rows: "
        << (rows.ok ? "ok" : rows.error) << "\n  cols: "
        << (cols.ok ? "ok" : cols.error);
    if (rows.ok && cols.ok) {
      EXPECT_EQ(rows.table, cols.table)
          << "answer diverged for: " << text << "\n-- row path --\n"
          << rows.table << "-- columnar path --\n" << cols.table;
    } else if (!rows.ok && !cols.ok) {
      EXPECT_EQ(rows.error, cols.error)
          << "error text diverged for: " << text;
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<QuelSession> session_;
};

TEST_F(ColumnarQuelDifferentialTest, RetrievesAreAnswerPreserving) {
  const std::vector<std::string> corpus = {
      "retrieve (s.Name) where s.Class = \"0204\"",
      "retrieve (s.Name, s.Id) where s.Class != \"0204\"",
      "retrieve unique (c.Type) where c.Displacement > 1000",
      "retrieve (c.ClassName) where c.Displacement > 8000 "
      "and c.Type = \"SSBN\"",
      // Numeric constant against a string attribute: the binder keeps
      // its raw spelling on both paths.
      "retrieve (s.Name) where s.Class = 0204",
      // Sort, projection arithmetic inputs, and declined shapes.
      "retrieve (c.Class, c.Displacement) where c.Displacement >= 16600 "
      "sort by c.Class",
      "retrieve (s.Name) where s.Class = \"0204\" or s.Class = \"0101\"",
      // Multi-block relation: narrow band, off-domain point, strings.
      "retrieve (b.K) where b.K >= 1500 and b.K < 1510",
      "retrieve (b.K) where b.K = -3",
      "retrieve unique (b.Tag) where b.D > 700.0",
      "retrieve (b.K) where b.Tag = \"green\" and b.K < 12",
      // Unknown attribute in WHERE: a bind error either way.
      "retrieve (b.K) where b.Nope = 1",
  };
  for (const std::string& text : corpus) {
    ExpectEquivalent(text);
    if (HasFailure()) break;
  }
}

TEST_F(ColumnarQuelDifferentialTest, ReportsPruningOnNarrowBands) {
  SetColumnarEnabled(true);
  auto result =
      session_->ExecuteText("retrieve (b.K) where b.K >= 10 and b.K <= 20");
  ASSERT_OK(result.status());
  EXPECT_EQ(result->relation.size(), 11u);
  EXPECT_GE(result->columnar_blocks_total, 4u);
  EXPECT_GT(result->columnar_blocks_pruned, 0u);
}

// ---- induction --------------------------------------------------------

TEST(ColumnarInductionDifferentialTest, ShipRuleBaseIsIdentical) {
  auto db = testing_util::ShipDatabaseOrFail();
  auto catalog = testing_util::ShipCatalogOrFail();
  ASSERT_NE(db, nullptr);
  ASSERT_NE(catalog, nullptr);
  InductiveLearningSubsystem ils(db.get(), catalog.get());
  InductionConfig config;
  config.min_support = 3;
  SetColumnarEnabled(false);
  auto rows = ils.InduceAll(config);
  SetColumnarEnabled(true);
  auto cols = ils.InduceAll(config);
  SetColumnarEnabled(true);
  ASSERT_OK(rows.status());
  ASSERT_OK(cols.status());
  ASSERT_EQ(cols->size(), rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    const Rule& a = rows->rules()[i];
    const Rule& b = cols->rules()[i];
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.Body(), a.Body());
    EXPECT_EQ(b.scheme, a.scheme);
    EXPECT_EQ(b.source_relation, a.source_relation);
    EXPECT_EQ(b.support, a.support);
    EXPECT_EQ(b.family_complete, a.family_complete);
  }
}

TEST(ColumnarInductionDifferentialTest, SeededFuzzRelationsAreIdentical) {
  // Random relations with duplicate X values, numeric type mixing, and
  // nulls — the shapes most likely to expose representative-spelling or
  // tie-break divergence between the two paths.
  uint64_t state = 0xD1FFULL;
  auto next = [&state]() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (int round = 0; round < 40; ++round) {
    Relation rel("FUZZ", Schema({{"X", ValueType::kInt, false},
                                 {"Y", ValueType::kString, false}}));
    const size_t rows = 1 + next() % 400;
    for (size_t i = 0; i < rows; ++i) {
      Value x;
      switch (next() % 8) {
        case 0: x = Value::Null(); break;
        case 1: x = Value::Real(static_cast<double>(next() % 12)); break;
        default: x = Value::Int(static_cast<int64_t>(next() % 12));
      }
      Value y = next() % 9 == 0
                    ? Value::Null()
                    : Value::String(std::string(1, 'a' + next() % 5));
      rel.AppendUnchecked(Tuple({x, y}));
    }
    InductionConfig config;
    config.prune = next() % 2 == 0;
    config.min_support = 1 + next() % 4;
    config.run_policy = next() % 2 == 0 ? RunPolicy::kDatabaseDomain
                                        : RunPolicy::kRemainingDomain;
    InductionStats row_stats, col_stats;
    auto via_rows =
        InduceSchemeRowsWithStats(rel, "X", "Y", config, &row_stats);
    auto via_cols = InduceSchemeColumnarWithStats(
        ColumnarRelation::FromRelation(rel), "X", "Y", config, &col_stats);
    ASSERT_OK(via_rows.status());
    ASSERT_OK(via_cols.status());
    ASSERT_EQ(via_cols->size(), via_rows->size()) << "round " << round;
    for (size_t i = 0; i < via_rows->size(); ++i) {
      EXPECT_EQ((*via_cols)[i].Body(), (*via_rows)[i].Body())
          << "round " << round;
      EXPECT_EQ((*via_cols)[i].support, (*via_rows)[i].support)
          << "round " << round;
      EXPECT_EQ((*via_cols)[i].family_complete,
                (*via_rows)[i].family_complete)
          << "round " << round;
    }
    EXPECT_EQ(col_stats.distinct_pairs, row_stats.distinct_pairs);
    EXPECT_EQ(col_stats.inconsistent_values, row_stats.inconsistent_values);
    EXPECT_EQ(col_stats.runs, row_stats.runs);
    EXPECT_EQ(col_stats.pruned, row_stats.pruned);
    if (HasFailure()) break;
  }
  SetColumnarEnabled(true);
}

}  // namespace
}  // namespace iqs
