// Oracle differential for the one scan path (DESIGN.md §14): the
// executor reads every stored FROM entry through the columnar scan, and
// every statement here must answer exactly as
// testing_util::TupleAtATimeRows, a tuple-at-a-time evaluation that
// shares no executor code. Rows must match; on failure, the status code
// and text. The statements are a golden SQL corpus, a seeded 250-query
// fuzz sweep, a multi-entry join battery and a QUEL corpus (over a wide
// synthetic relation, where zone-map pruning must fire). Aggregates are
// checked through their FROM/WHERE, as SELECT *, against the oracle, and
// their rows against tables written here. Induction holds the columnar
// implementation to the row reference, rule by rule and stat by stat.
// A divergence dumps the statement, so the failure is diagnosable from
// the log alone. Labeled "columnar".

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "gtest/gtest.h"
#include "induction/inter_object.h"
#include "induction/rule_induction.h"
#include "quel/quel_session.h"
#include "relational/column_store.h"
#include "sql/sql_executor.h"
#include "sql/sql_parser.h"
#include "sql/sqo_rewrite.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

// One rendered row per entry; sorted unless the order is the contract.
std::vector<std::string> Render(const std::vector<Tuple>& rows,
                                bool ordered) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.ToString());
  if (!ordered) std::sort(out.begin(), out.end());
  return out;
}

// Expects `served`, the answer `sql` got, to be the oracle's. A
// one-entry statement without ORDER BY returns rows in base order, as
// the oracle does; otherwise the rows compare as multisets.
void ExpectMatchesOracle(const Database& db, const std::string& sql,
                         const Result<std::vector<Tuple>>& served) {
  Result<SelectStatement> stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status();
  Result<std::vector<Tuple>> oracle =
      testing_util::TupleAtATimeRows(db, *stmt);
  ASSERT_EQ(served.ok(), oracle.ok())
      << "status diverged for: " << sql << "\n  served: "
      << (served.ok() ? "ok" : served.status().ToString())
      << "\n  oracle: " << (oracle.ok() ? "ok" : oracle.status().ToString());
  if (!oracle.ok()) {
    EXPECT_EQ(served.status().code(), oracle.status().code()) << sql;
    EXPECT_EQ(served.status().ToString(), oracle.status().ToString())
        << "error text diverged for: " << sql;
    return;
  }
  const bool ordered = stmt->from.size() == 1 && stmt->order_by.empty();
  EXPECT_EQ(Render(*served, ordered), Render(*oracle, ordered))
      << "answer diverged for: " << sql;
}

Result<std::vector<Tuple>> RowsOf(const Result<Relation>& result) {
  if (!result.ok()) return result.status();
  return result->rows();
}

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

  void TearDown() override { system_->processor().cache().Clear(); }

  // The served answer, through the whole query processor on a cold
  // cache.
  static Result<QueryResult> Serve(const std::string& sql) {
    system_->processor().cache().Clear();
    return system_->Query(sql);
  }

  static void ExpectServedMatchesOracle(const std::string& sql) {
    Result<QueryResult> served = Serve(sql);
    ExpectMatchesOracle(system_->database(), sql,
                        served.ok() ? Result<std::vector<Tuple>>(
                                          served->extensional.rows())
                                    : served.status());
  }

  static IqsSystem* system_;
};

IqsSystem* ColumnarDifferentialTest::system_ = nullptr;

// Hand-picked queries over the ship schema: conjunctive one-table
// WHEREs, literal-left comparisons, off-domain constants that prune
// every block, LIKE patterns, joins, OR, no WHERE, DISTINCT and ORDER BY
// over a filtered scan, and a bind error.
const std::vector<std::string>& GoldenCorpus() {
  static const std::vector<std::string>* corpus =
      new std::vector<std::string>{
          "SELECT Id FROM SUBMARINE WHERE Class = '0204'",
          "SELECT Name FROM SUBMARINE WHERE Class = '0204' AND Id <> 'x'",
          "SELECT ClassName FROM CLASS WHERE Type = 'SSBN'",
          "SELECT ClassName FROM CLASS WHERE Displacement > 8000",
          "SELECT ClassName FROM CLASS WHERE Displacement BETWEEN 1000 "
          "AND 30000",
          "SELECT Class FROM CLASS WHERE Displacement >= 16600 "
          "AND Type = 'SSBN'",
          // Literal on the left: bound column-first.
          "SELECT ClassName FROM CLASS WHERE 8000 < Displacement",
          // Off-domain constants: empty answer, fully pruned.
          "SELECT ClassName FROM CLASS WHERE Displacement > 99999",
          "SELECT Id FROM SUBMARINE WHERE Class = '9999'",
          // LIKE, with '%' and '_'.
          "SELECT Name FROM SUBMARINE WHERE Name LIKE 'Ty%'",
          "SELECT ClassName FROM CLASS WHERE ClassName LIKE '%o_'",
          // A numeric literal against a CHAR column keeps its spelling.
          "SELECT Name FROM SUBMARINE WHERE Name > 5",
          "SELECT Name FROM SUBMARINE WHERE 5 < Name",
          // A join, an OR (the residual) and no WHERE.
          "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
          "WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Type = 'SSBN'",
          "SELECT Id FROM SUBMARINE WHERE Class = '0204' OR Class = '0101'",
          "SELECT Name FROM SUBMARINE",
          // DISTINCT / ORDER BY over a filtered scan.
          "SELECT DISTINCT Class FROM SUBMARINE WHERE Class = '0204'",
          "SELECT Name FROM SUBMARINE WHERE Class = '0204' "
          "ORDER BY Name DESC",
          // Bind error.
          "SELECT Id FROM SUBMARINE WHERE NoSuchColumn = '0204'",
      };
  return *corpus;
}

TEST_F(ColumnarDifferentialTest, GoldenCorpusIsAnswerPreserving) {
  for (const std::string& sql : GoldenCorpus()) {
    ExpectServedMatchesOracle(sql);
    if (HasFailure()) break;  // the divergence already dumped the query
  }
}

TEST_F(ColumnarDifferentialTest, AggregatesOverAFilteredScan) {
  // The oracle evaluates no aggregate: each statement's FROM/WHERE runs
  // as SELECT * against it, and the aggregate rows are the CLASS table
  // of Appendix C, counted by hand.
  struct AggregateCase {
    const char* sql;
    const char* star;
    std::vector<std::string> rows;
  };
  const std::vector<AggregateCase> cases = {
      {"SELECT Type, COUNT(*) FROM CLASS WHERE Displacement > 1000 "
       "GROUP BY Type",
       "SELECT * FROM CLASS WHERE Displacement > 1000",
       {"SSBN|4", "SSN|9"}},
      {"SELECT MIN(Displacement), MAX(Displacement) FROM CLASS "
       "WHERE Type = 'SSBN'",
       "SELECT * FROM CLASS WHERE Type = 'SSBN'",
       {"7250|30000"}},
  };
  for (const AggregateCase& c : cases) {
    ExpectServedMatchesOracle(c.star);
    Result<QueryResult> served = Serve(c.sql);
    ASSERT_OK(served.status());
    EXPECT_EQ(Render(served->extensional.rows(), /*ordered=*/true), c.rows)
        << c.sql;
  }
}

TEST_F(ColumnarDifferentialTest, ExplainSurfacesBatchScanAndPruning) {
  // An off-domain restriction: the only block is zone-map pruned, and
  // both the stats struct and the EXPLAIN text say so.
  auto pruned =
      Serve("SELECT ClassName FROM CLASS WHERE Displacement > 99999");
  ASSERT_OK(pruned.status());
  EXPECT_EQ(pruned->extensional.size(), 0u);
  EXPECT_EQ(pruned->stats.columnar_tables, 1u);
  EXPECT_GE(pruned->stats.columnar_blocks_total, 1u);
  EXPECT_EQ(pruned->stats.columnar_blocks_pruned,
            pruned->stats.columnar_blocks_total);
  EXPECT_NE(pruned->stats.ToString().find("columnar:"), std::string::npos);
  EXPECT_NE(pruned->stats.ToJson().find("\"columnar_blocks_pruned\""),
            std::string::npos);
  // rows_scanned stays the full relation size — pruning is reported in
  // its own counters.
  auto kept = Serve("SELECT ClassName FROM CLASS WHERE Displacement > 8000");
  ASSERT_OK(kept.status());
  EXPECT_EQ(kept->stats.columnar_tables, 1u);
  EXPECT_EQ(kept->stats.rows_scanned, 13u);
  // Every stored entry of a join is scanned, and so is a statement
  // without a WHERE.
  auto joined = Serve(
      "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
      "WHERE SUBMARINE.Class = CLASS.Class");
  ASSERT_OK(joined.status());
  EXPECT_EQ(joined->stats.columnar_tables, 2u);
  auto all = Serve("SELECT Name FROM SUBMARINE");
  ASSERT_OK(all.status());
  EXPECT_EQ(all->stats.columnar_tables, 1u);
  EXPECT_EQ(all->extensional.size(), 24u);
}

TEST_F(ColumnarDifferentialTest, ComposesWithSemanticRewriteBounds) {
  // The semantic rewrite's rule-synthesized BETWEEN bounds are bound
  // conjuncts like any hand-written range, so they become scan
  // conditions too; with sqo on the answers still match the oracle.
  system_->processor().set_sqo_mode(SqoMode::kOn);
  for (const std::string sql :
       {"SELECT ClassName FROM CLASS WHERE Type = 'SSBN'",
        "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' AND "
        "Displacement > 1000"}) {
    Result<QueryResult> served = Serve(sql);
    ASSERT_OK(served.status());
    EXPECT_GT(served->extensional.size(), 0u);
    EXPECT_GE(served->stats.columnar_tables, 1u);
    ExpectMatchesOracle(system_->database(), sql,
                        served->extensional.rows());
  }
  system_->processor().set_sqo_mode(SqoMode::kOff);
}

// SplitMix64-seeded conjunctive queries over the real schema, platform
// stable: typed, quoted, literal-left and LIKE conjuncts, some with
// off-domain constants.
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
      // Occasionally a literal that does not parse as the column's type.
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
    ExpectServedMatchesOracle(fuzzer.Next());
    if (HasFailure()) break;
  }
}

// ---- multi-entry statements over multi-block relations ----------------

// BIG spans four blocks: K ascending (so a K band prunes blocks), Tag
// cycling red/green/blue, every 11th D null. TAGS is one small block
// whose Pattern column holds LIKE patterns.
std::unique_ptr<Database> WideDatabase() {
  std::unique_ptr<Database> db = testing_util::ShipDatabaseOrFail();
  if (db == nullptr) return nullptr;
  Relation big("BIG", Schema({{"K", ValueType::kInt, false},
                              {"Tag", ValueType::kString, false},
                              {"D", ValueType::kReal, false}}));
  static const char* kTags[] = {"red", "green", "blue"};
  for (size_t i = 0; i < 3 * kColumnarBlockRows + 100; ++i) {
    big.AppendUnchecked(
        Tuple({Value::Int(static_cast<int64_t>(i)),
               Value::String(kTags[i % 3]),
               i % 11 == 0 ? Value::Null()
                           : Value::Real(static_cast<double>(i) / 2.0)}));
  }
  EXPECT_OK(db->AddRelation(std::move(big)));
  EXPECT_OK(db->AddRelation(testing_util::MakeRelation(
      "TAGS",
      Schema({{"Tag", ValueType::kString, true},
              {"Rank", ValueType::kInt, false},
              {"Pattern", ValueType::kString, false}}),
      {{"red", "1", "r%"}, {"green", "2", "g_een"}, {"blue", "3", "%u%"}})));
  return db;
}

class ColumnarJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = WideDatabase();
    ASSERT_NE(db_, nullptr);
    executor_ = std::make_unique<SqlExecutor>(db_.get());
  }

  // Runs `sql` through the executor and checks it against the oracle.
  void Check(const std::string& sql) {
    ExpectMatchesOracle(*db_, sql, RowsOf(executor_->ExecuteSql(sql)));
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlExecutor> executor_;
};

TEST_F(ColumnarJoinTest, BandPruningEveryBlockOfOneEntry) {
  Check("SELECT b.K, t.Rank FROM BIG b, TAGS t "
        "WHERE b.Tag = t.Tag AND b.K > 99999");
  const SqlExecutor::ExecutionStats& stats = executor_->last_stats();
  EXPECT_EQ(stats.columnar_tables, 2u);
  EXPECT_EQ(stats.columnar_blocks_total, 5u);  // BIG's 4 + TAGS' 1
  EXPECT_EQ(stats.columnar_blocks_pruned, 4u);
  // A narrow band keeps one block of BIG; the join still answers.
  Check("SELECT b.K, t.Rank FROM BIG b, TAGS t "
        "WHERE b.K BETWEEN 1500 AND 1510 AND b.Tag = t.Tag");
  EXPECT_EQ(executor_->last_stats().columnar_blocks_pruned, 3u);
  EXPECT_EQ(executor_->last_stats().rows_returned, 11u);
  // A cross product: b.K < 4 prunes BIG, and the OR runs in the full
  // WHERE over the joined rows.
  Check("SELECT b.K, t.Tag FROM BIG b, TAGS t "
        "WHERE b.K < 4 AND (t.Rank = 1 OR b.D > 1.0)");
}

TEST_F(ColumnarJoinTest, SelfJoinSharesOneSnapshot) {
  // Both entries read the one cached snapshot, each with its own
  // conditions. (The oracle walks the whole cross product, so this
  // joins the 24-ship SUBMARINE rather than BIG.)
  ASSERT_OK_AND_ASSIGN(auto before, db_->ColumnarSnapshot("SUBMARINE"));
  Check("SELECT a.Id, b.Id FROM SUBMARINE a, SUBMARINE b "
        "WHERE a.Class = b.Class AND a.Id < 'SSN6' AND b.Name > 'M'");
  EXPECT_EQ(executor_->last_stats().columnar_tables, 2u);
  EXPECT_GT(executor_->last_stats().rows_returned, 0u);
  ASSERT_OK_AND_ASSIGN(auto after, db_->ColumnarSnapshot("SUBMARINE"));
  EXPECT_EQ(before.get(), after.get());
  Check("SELECT a.Name, b.Name FROM SUBMARINE a, SUBMARINE b "
        "WHERE a.Class = b.Class AND a.Id <> b.Id AND a.Class = '0204'");
}

TEST_F(ColumnarJoinTest, IndexOnOneEntryScanOnTheOther) {
  ASSERT_OK(db_->CreateIndex("BIG", "K"));
  Check("SELECT b.K, t.Rank FROM BIG b, TAGS t "
        "WHERE b.K BETWEEN 10 AND 20 AND b.Tag = t.Tag AND t.Rank > 1");
  const SqlExecutor::ExecutionStats& stats = executor_->last_stats();
  EXPECT_EQ(stats.index_prefiltered_tables, 1u);
  EXPECT_EQ(stats.columnar_tables, 1u);
  EXPECT_EQ(stats.base_rows_loaded, 11u + 3u);
}

TEST_F(ColumnarJoinTest, MixedColumnConjunctsStayInTheResidual) {
  // A value appended outside its declared type demotes X to kMixed,
  // whose zone maps span types; its conjunct is the residual and prunes
  // nothing, while the typed K condition still prunes.
  Relation mix("MIX", Schema({{"K", ValueType::kInt, false},
                              {"X", ValueType::kInt, false}}));
  for (int64_t i = 0; i < static_cast<int64_t>(2 * kColumnarBlockRows);
       ++i) {
    mix.AppendUnchecked(Tuple(
        {Value::Int(i), i == 3 ? Value::Real(3.5) : Value::Int(i)}));
  }
  ASSERT_OK(db_->AddRelation(std::move(mix)));
  ASSERT_OK_AND_ASSIGN(auto snapshot, db_->ColumnarSnapshot("MIX"));
  ASSERT_EQ(snapshot->column(1).storage(), Column::Storage::kMixed);
  Check("SELECT K FROM MIX WHERE X > 1500");
  EXPECT_EQ(executor_->last_stats().columnar_blocks_pruned, 0u);
  EXPECT_EQ(executor_->last_stats().rows_returned, 547u);
  Check("SELECT K FROM MIX WHERE K > 1500 AND X < 3.6");
  EXPECT_EQ(executor_->last_stats().columnar_blocks_pruned, 1u);
}

TEST_F(ColumnarJoinTest, LiteralLeftLikeMatchesTheConstant) {
  // 'ruby' is the subject and t.Pattern the pattern: red ('r%') and
  // blue ('%u%') match; the swapped reading would match nothing.
  Check("SELECT t.Tag FROM TAGS t WHERE 'ruby' LIKE t.Pattern");
  EXPECT_EQ(executor_->last_stats().rows_returned, 2u);
  Check("SELECT K FROM BIG WHERE 'gr_en' LIKE Tag AND K < 30");
  EXPECT_EQ(executor_->last_stats().rows_returned, 0u);
}

// ---- QUEL sessions ----------------------------------------------------

class ColumnarQuelDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = WideDatabase();
    ASSERT_NE(db_, nullptr);
    session_ = std::make_unique<QuelSession>(db_.get());
    ASSERT_OK(session_->ExecuteText("range of s is SUBMARINE").status());
    ASSERT_OK(session_->ExecuteText("range of c is CLASS").status());
    ASSERT_OK(session_->ExecuteText("range of b is BIG").status());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<QuelSession> session_;
};

TEST_F(ColumnarQuelDifferentialTest, RetrievesAreAnswerPreserving) {
  // Each retrieve with the SELECT it means, aliases as the variables.
  struct QuelCase {
    const char* quel;
    const char* sql;
  };
  const std::vector<QuelCase> corpus = {
      {"retrieve (s.Name) where s.Class = \"0204\"",
       "SELECT s.Name FROM SUBMARINE s WHERE s.Class = '0204'"},
      {"retrieve (s.Name, s.Id) where s.Class != \"0204\"",
       "SELECT s.Name, s.Id FROM SUBMARINE s WHERE s.Class <> '0204'"},
      {"retrieve unique (c.Type) where c.Displacement > 1000",
       "SELECT DISTINCT c.Type FROM CLASS c WHERE c.Displacement > 1000"},
      {"retrieve (c.ClassName) where c.Displacement > 8000 "
       "and c.Type = \"SSBN\"",
       "SELECT c.ClassName FROM CLASS c WHERE c.Displacement > 8000 "
       "AND c.Type = 'SSBN'"},
      // A numeric constant against a string attribute keeps its spelling.
      {"retrieve (s.Name) where s.Class = 0204",
       "SELECT s.Name FROM SUBMARINE s WHERE s.Class = 0204"},
      {"retrieve (c.Class, c.Displacement) where c.Displacement >= 16600 "
       "sort by c.Class",
       "SELECT c.Class, c.Displacement FROM CLASS c "
       "WHERE c.Displacement >= 16600 ORDER BY c.Class"},
      {"retrieve (s.Name) where s.Class = \"0204\" or s.Class = \"0101\"",
       "SELECT s.Name FROM SUBMARINE s "
       "WHERE s.Class = '0204' OR s.Class = '0101'"},
      // Multi-block relation: narrow band, off-domain point, strings.
      {"retrieve (b.K) where b.K >= 1500 and b.K < 1510",
       "SELECT b.K FROM BIG b WHERE b.K >= 1500 AND b.K < 1510"},
      {"retrieve (b.K) where b.K = -3",
       "SELECT b.K FROM BIG b WHERE b.K = -3"},
      {"retrieve (b.K) where b.K = 99999",
       "SELECT b.K FROM BIG b WHERE b.K = 99999"},
      {"retrieve unique (b.Tag) where b.D > 700.0",
       "SELECT DISTINCT b.Tag FROM BIG b WHERE b.D > 700.0"},
      {"retrieve (b.K) where b.Tag = \"green\" and b.K < 12",
       "SELECT b.K FROM BIG b WHERE b.Tag = 'green' AND b.K < 12"},
      // Unknown attribute in WHERE: the binder's error either way.
      {"retrieve (b.K) where b.Nope = 1",
       "SELECT b.K FROM BIG b WHERE b.Nope = 1"},
  };
  for (const QuelCase& c : corpus) {
    Result<QuelSession::ExecutionResult> served = session_->ExecuteText(c.quel);
    SCOPED_TRACE(c.quel);
    ExpectMatchesOracle(*db_, c.sql,
                        served.ok() ? Result<std::vector<Tuple>>(
                                          served->relation.rows())
                                    : served.status());
    if (HasFailure()) break;
  }
}

TEST_F(ColumnarQuelDifferentialTest, ReportsPruningOnNarrowBands) {
  auto result =
      session_->ExecuteText("retrieve (b.K) where b.K >= 10 and b.K <= 20");
  ASSERT_OK(result.status());
  EXPECT_EQ(result->relation.size(), 11u);
  EXPECT_GE(result->columnar_blocks_total, 4u);
  EXPECT_GT(result->columnar_blocks_pruned, 0u);
}

// ---- induction --------------------------------------------------------

void ExpectInductionMatchesRows(const Relation& rel,
                                const ColumnarRelation& cols,
                                const std::string& x, const std::string& y,
                                const InductionConfig& config) {
  SCOPED_TRACE(rel.name() + " " + x + "->" + y);
  InductionStats row_stats, col_stats;
  auto rows = InduceSchemeRowsWithStats(rel, x, y, config, &row_stats);
  auto via_cols = InduceSchemeColumnarWithStats(cols, x, y, config,
                                                &col_stats);
  ASSERT_OK(rows.status());
  ASSERT_OK(via_cols.status());
  ASSERT_EQ(via_cols->size(), rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    const Rule& a = (*rows)[i];
    const Rule& b = (*via_cols)[i];
    EXPECT_EQ(b.Body(), a.Body());
    EXPECT_EQ(b.scheme, a.scheme);
    EXPECT_EQ(b.source_relation, a.source_relation);
    EXPECT_EQ(b.support, a.support);
    EXPECT_EQ(b.family_complete, a.family_complete);
  }
  EXPECT_EQ(col_stats.distinct_pairs, row_stats.distinct_pairs);
  EXPECT_EQ(col_stats.inconsistent_values, row_stats.inconsistent_values);
  EXPECT_EQ(col_stats.runs, row_stats.runs);
  EXPECT_EQ(col_stats.pruned, row_stats.pruned);
}

TEST(ColumnarInductionDifferentialTest, ShipRuleBaseIsIdentical) {
  // Every (X, Y) scheme over every ship relation, through the snapshot
  // ILS induces from, and over every relationship's joined view: the
  // schemes of the ship rule base and all the others.
  auto db = testing_util::ShipDatabaseOrFail();
  auto catalog = testing_util::ShipCatalogOrFail();
  ASSERT_NE(db, nullptr);
  ASSERT_NE(catalog, nullptr);
  InductionConfig config;
  config.min_support = 3;
  auto all_pairs = [&](const Relation& rel, const ColumnarRelation& cols) {
    const Schema& schema = rel.schema();
    for (size_t x = 0; x < schema.size(); ++x) {
      for (size_t y = 0; y < schema.size(); ++y) {
        if (x == y) continue;
        ExpectInductionMatchesRows(rel, cols, schema.attribute(x).name,
                                   schema.attribute(y).name, config);
      }
    }
  };
  for (const std::string& name : db->RelationNames()) {
    ASSERT_OK_AND_ASSIGN(const Relation* rel, db->Get(name));
    ASSERT_OK_AND_ASSIGN(auto snapshot, db->ColumnarSnapshot(name));
    all_pairs(*rel, *snapshot);
  }
  size_t views = 0;
  for (const std::string& name : catalog->RelationshipTypeNames()) {
    if (!db->Contains(name)) continue;
    ASSERT_OK_AND_ASSIGN(Relation view,
                         BuildRelationshipView(*db, *catalog, name));
    all_pairs(view, ColumnarRelation::FromRelation(view));
    ++views;
  }
  EXPECT_GT(views, 0u);
}

TEST(ColumnarInductionDifferentialTest, SeededFuzzRelationsAreIdentical) {
  // Random relations with duplicate X values, numeric type mixing, and
  // nulls — the shapes most likely to expose representative-spelling or
  // tie-break divergence between the two implementations.
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
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectInductionMatchesRows(rel, ColumnarRelation::FromRelation(rel), "X",
                               "Y", config);
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace iqs
