// Oracle differential for the one scan path and the batch executor
// (DESIGN.md §14): the executor reads every stored FROM entry through the
// columnar scan and carries row ids to the output, and every statement
// here must answer exactly as an evaluation that shares no executor code:
// testing_util::TupleAtATimeRows for select-project-join statements, and
// the ExecutorOracle of tests/executor_oracle.h (the row aggregate and
// sort the executor replaced) for aggregate, GROUP BY, HAVING and ORDER BY
// statements, row for row and in order. Rows must match; on failure, the
// status code and text. The statements are a golden SQL corpus, a seeded
// 250-query fuzz sweep with a grouped and a sorted variant of each query,
// a multi-entry join battery, a QUEL corpus (over a wide synthetic
// relation, where zone-map pruning must fire) and the executor's
// aggregate, sort and schema-only shapes. Induction holds the columnar
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
#include "tests/executor_oracle.h"
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

bool Aggregated(const SelectStatement& stmt) {
  return stmt.has_aggregates() || !stmt.group_by.empty() ||
         stmt.having != nullptr;
}

Result<std::vector<Tuple>> RowsOf(const Result<Relation>& result) {
  if (!result.ok()) return result.status();
  return result->rows();
}

// Expects `served`, the answer `sql` got, to be the oracle's. A
// one-entry statement returns rows in base order (or in ORDER BY's), and
// an aggregate its groups in key order, as the oracle does; otherwise the
// rows compare as multisets, since the executor's join order is not the
// oracle's FROM order.
void ExpectMatchesOracle(const Database& db, const std::string& sql,
                         const Result<std::vector<Tuple>>& served) {
  Result<SelectStatement> stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status();
  Result<std::vector<Tuple>> oracle =
      Aggregated(*stmt) || !stmt->order_by.empty()
          ? RowsOf(testing_util::ExecutorOracle::Run(db, *stmt))
          : testing_util::TupleAtATimeRows(db, *stmt);
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
  const bool ordered = stmt->from.size() == 1 || Aggregated(*stmt);
  EXPECT_EQ(Render(*served, ordered), Render(*oracle, ordered))
      << "answer diverged for: " << sql;
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
          // Aggregates, GROUP BY, HAVING and ORDER BY, against the
          // ExecutorOracle in order.
          "SELECT Type, COUNT(*) FROM CLASS GROUP BY Type",
          "SELECT Type, MIN(Displacement), MAX(Displacement), "
          "SUM(Displacement), AVG(Displacement) FROM CLASS "
          "WHERE Displacement > 1000 GROUP BY Type ORDER BY Type DESC",
          "SELECT Class, COUNT(*) FROM SUBMARINE GROUP BY Class "
          "HAVING COUNT(*) > 1",
          "SELECT COUNT(*), MIN(Name) FROM SUBMARINE WHERE Class = '9999'",
          "SELECT CLASS.Type, COUNT(*) FROM SUBMARINE, CLASS "
          "WHERE SUBMARINE.Class = CLASS.Class GROUP BY CLASS.Type",
          "SELECT Name FROM SUBMARINE ORDER BY Class DESC",
          "SELECT DISTINCT Type FROM CLASS ORDER BY Type",
          "SELECT Type FROM CLASS GROUP BY Type ORDER BY Displacement",
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
  // Each statement's FROM/WHERE runs as SELECT * against the tuple
  // oracle, the aggregate against the ExecutorOracle, and the aggregate
  // rows are the CLASS table of Appendix C, counted by hand.
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
    ExpectServedMatchesOracle(c.sql);
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
  // Each fuzzed `SELECT col FROM t WHERE ...` also runs grouped by its
  // column, as a whole-table aggregate, and sorted by its column.
  ShipQueryFuzzer fuzzer(0xC01A7ABUL);
  for (int i = 0; i < 250; ++i) {
    const std::string sql = fuzzer.Next();
    const size_t from = sql.find(" FROM ");
    const std::string col = sql.substr(7, from - 7);
    const std::string rest = sql.substr(from);
    for (const std::string& variant :
         {sql, "SELECT " + col + ", COUNT(*)" + rest + " GROUP BY " + col,
          "SELECT COUNT(" + col + "), MIN(" + col + "), MAX(" + col + ")" +
              rest,
          sql + " ORDER BY " + col + " DESC"}) {
      ExpectServedMatchesOracle(variant);
    }
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

// ---- aggregates, sorts and schema-only shapes ---------------------------

// FLEET covers the aggregate shapes: two grouping columns, REAL tonnage,
// string and date extremes, nulls in Tons and Crew, and ties on Type.
// MIXED holds Int 5 and Real 5.0 in one INT column, which demotes it to
// kMixed storage.
std::unique_ptr<Database> AggregateDatabase() {
  std::unique_ptr<Database> db = testing_util::ShipDatabaseOrFail();
  if (db == nullptr) return nullptr;
  EXPECT_OK(db->AddRelation(testing_util::MakeRelation(
      "FLEET",
      Schema({{"Name", ValueType::kString, true},
              {"Type", ValueType::kString, false},
              {"Yard", ValueType::kString, false},
              {"Tons", ValueType::kReal, false},
              {"Commissioned", ValueType::kDate, false},
              {"Crew", ValueType::kInt, false}}),
      {{"Ohio", "SSBN", "Groton", "16764.5", "1981-11-11", "155"},
       {"Typhoon", "SSBN", "Severodvinsk", "48000.25", "1981-12-12", ""},
       {"Delta", "SSBN", "Severodvinsk", "", "1976-01-30", "130"},
       {"Alfa", "SSN", "Leningrad", "3200.1", "1977-12-31", "32"},
       {"Akula", "SSN", "Severodvinsk", "13800.7", "1984-12-30", ""},
       {"Los Angeles", "SSN", "Newport News", "6927.3", "1976-11-13", "129"},
       {"Seawolf", "SSN", "Groton", "9138.9", "1997-07-19", "140"},
       {"Kilo", "SSK", "Leningrad", "3076.0", "", "52"}})));
  Relation mixed("MIXED", Schema({{"K", ValueType::kInt, false},
                                  {"X", ValueType::kInt, false}}));
  mixed.AppendUnchecked(Tuple({Value::Int(1), Value::Real(5.0)}));
  mixed.AppendUnchecked(Tuple({Value::Int(2), Value::Int(5)}));
  mixed.AppendUnchecked(Tuple({Value::Int(3), Value::Int(7)}));
  mixed.AppendUnchecked(Tuple({Value::Int(4), Value::Null()}));
  EXPECT_OK(db->AddRelation(std::move(mixed)));
  return db;
}

class ExecutorOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = AggregateDatabase();
    ASSERT_NE(db_, nullptr);
    executor_ = std::make_unique<SqlExecutor>(db_.get());
  }

  void Check(const std::string& sql) {
    SCOPED_TRACE(sql);
    ExpectMatchesOracle(*db_, sql, RowsOf(executor_->ExecuteSql(sql)));
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlExecutor> executor_;
};

TEST_F(ExecutorOracleTest, AggregateShapesMatchTheRowAggregate) {
  for (const char* sql : {
           // GROUP BY two columns.
           "SELECT Type, Yard, COUNT(*) FROM FLEET GROUP BY Type, Yard",
           "SELECT Yard, Type, MIN(Name) FROM FLEET GROUP BY Type, Yard "
           "ORDER BY Yard DESC",
           // SUM and AVG over REAL, with a null tonnage.
           "SELECT Type, SUM(Tons), AVG(Tons) FROM FLEET GROUP BY Type",
           "SELECT SUM(Tons), AVG(Tons), SUM(Crew), AVG(Crew) FROM FLEET",
           // MIN and MAX over strings and dates.
           "SELECT MIN(Name), MAX(Name), MIN(Commissioned), "
           "MAX(Commissioned) FROM FLEET",
           "SELECT Type, MIN(Commissioned), MAX(Yard) FROM FLEET "
           "GROUP BY Type",
           // COUNT(col) over nulls.
           "SELECT COUNT(*), COUNT(Crew), COUNT(Tons), COUNT(Commissioned) "
           "FROM FLEET",
           "SELECT Type, COUNT(Crew) FROM FLEET GROUP BY Type",
           // An aggregate without GROUP BY over empty input: one row.
           "SELECT COUNT(*), SUM(Tons), MIN(Name), AVG(Crew) FROM FLEET "
           "WHERE Tons > 100000.0",
           // ... and with GROUP BY: no rows.
           "SELECT Type, COUNT(*) FROM FLEET WHERE Tons > 100000.0 "
           "GROUP BY Type",
           // HAVING over aggregate and group columns.
           "SELECT Type, COUNT(*) FROM FLEET GROUP BY Type "
           "HAVING COUNT(*) > 1 ORDER BY Type DESC",
           "SELECT Yard, COUNT(*) FROM FLEET GROUP BY Yard HAVING Yard > 'H'",
           // A join, grouped on a column of the second entry.
           "SELECT CLASS.Type, COUNT(*), MAX(SUBMARINE.Name) "
           "FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class "
           "GROUP BY CLASS.Type",
           // Errors: ungrouped column, SUM over text, SELECT *.
           "SELECT Name, COUNT(*) FROM FLEET GROUP BY Type",
           "SELECT SUM(Name) FROM FLEET",
           "SELECT * FROM FLEET GROUP BY Type",
       }) {
    Check(sql);
    if (HasFailure()) break;
  }
}

TEST_F(ExecutorOracleTest, OrderByDescendingKeepsTiesInRowOrder) {
  for (const char* sql : {
           "SELECT Name, Type FROM FLEET ORDER BY Type DESC",
           "SELECT Name FROM FLEET ORDER BY Yard DESC, Type",
           "SELECT Name, Crew FROM FLEET ORDER BY Crew DESC",
           "SELECT DISTINCT Type FROM FLEET ORDER BY Type DESC",
           "SELECT DISTINCT Yard, Type FROM FLEET WHERE Crew > 40 "
           "ORDER BY Type",
       }) {
    Check(sql);
    if (HasFailure()) break;
  }
  // Ties keep base order: SSN sorts above SSK above SSBN.
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      executor_->ExecuteSql("SELECT Name FROM FLEET ORDER BY Type DESC"));
  EXPECT_EQ(testing_util::ColumnText(out, "Name"),
            (std::vector<std::string>{"Alfa", "Akula", "Los Angeles",
                                      "Seawolf", "Kilo", "Ohio", "Typhoon",
                                      "Delta"}));
}

TEST_F(ExecutorOracleTest, ThreeEntryCrossProductKeepsFromOrder) {
  // No conjunct links the entries, so each is crossed in FROM order: the
  // executor's rows come in the oracle's nested-loop order.
  const std::string sql =
      "SELECT f.Name, t.Type, s.Sonar FROM FLEET f, TYPE t, SONAR s "
      "WHERE f.Crew > 130 AND s.Sonar > 'A'";
  ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect(sql));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> oracle,
                       testing_util::TupleAtATimeRows(*db_, stmt));
  ASSERT_OK_AND_ASSIGN(Relation served, executor_->ExecuteSql(sql));
  EXPECT_EQ(served.size(), 2u * 2u * 8u);
  EXPECT_EQ(Render(served.rows(), /*ordered=*/true),
            Render(oracle, /*ordered=*/true));
  Check("SELECT COUNT(*) FROM FLEET f, TYPE t, SONAR s");
  Check("SELECT t.Type, COUNT(*) FROM FLEET f, TYPE t, SONAR s "
        "WHERE f.Type = t.Type GROUP BY t.Type");
}

TEST_F(ExecutorOracleTest, IntAndRealFiveAreOneValueInAMixedColumn) {
  ASSERT_OK_AND_ASSIGN(auto snapshot, db_->ColumnarSnapshot("MIXED"));
  ASSERT_EQ(snapshot->column(1).storage(), Column::Storage::kMixed);
  Check("SELECT DISTINCT X FROM MIXED");
  Check("SELECT X, COUNT(*), MIN(K) FROM MIXED GROUP BY X");
  Check("SELECT X, SUM(K) FROM MIXED GROUP BY X ORDER BY X DESC");
  Check("SELECT SUM(X), AVG(X), MIN(X), MAX(X) FROM MIXED");
  // First occurrences: the Real 5.0 of row 1 stands for both.
  ASSERT_OK_AND_ASSIGN(Relation distinct,
                       executor_->ExecuteSql("SELECT DISTINCT X FROM MIXED"));
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct.row(0).at(0).type(), ValueType::kReal);
  ASSERT_OK_AND_ASSIGN(
      Relation grouped,
      executor_->ExecuteSql("SELECT X, COUNT(*) FROM MIXED GROUP BY X"));
  ASSERT_EQ(grouped.size(), 3u);  // null, 5, 7
  EXPECT_EQ(grouped.row(1).at(0).type(), ValueType::kReal);
  EXPECT_EQ(grouped.row(1).at(1), Value::Int(2));
  // An equi-join on the mixed column meets both fives.
  Check("SELECT a.K, b.K FROM MIXED a, MIXED b WHERE a.X = b.X");
  ASSERT_OK_AND_ASSIGN(
      Relation joined,
      executor_->ExecuteSql(
          "SELECT a.K, b.K FROM MIXED a, MIXED b WHERE a.X = b.X"));
  EXPECT_EQ(joined.size(), 5u);  // 2 x 2 fives + 7 with itself
}

TEST_F(ExecutorOracleTest, SchemaOnlyShapesMatchAnEmptyScan) {
  // ExecuteSchemaOnly reads no rows; its answer is the oracle's over a
  // database holding every relation's schema and no rows.
  Database empty;
  for (const std::string& name : db_->RelationNames()) {
    ASSERT_OK_AND_ASSIGN(const Relation* rel, db_->Get(name));
    ASSERT_OK(empty.CreateRelation(name, rel->schema()).status());
  }
  for (const char* sql : {
           "SELECT Name, Tons FROM FLEET WHERE Crew > 100",
           "SELECT * FROM FLEET",
           "SELECT DISTINCT Type FROM FLEET ORDER BY Type DESC",
           "SELECT Type, COUNT(*) FROM FLEET GROUP BY Type",
           "SELECT COUNT(*), SUM(Tons), MIN(Commissioned) FROM FLEET",
           "SELECT Type, COUNT(*) FROM FLEET GROUP BY Type "
           "HAVING COUNT(*) > 1",
           "SELECT SUBMARINE.Name, CLASS.Type FROM SUBMARINE, CLASS "
           "WHERE SUBMARINE.Class = CLASS.Class ORDER BY CLASS.Type",
           "SELECT f.Name, t.Type FROM FLEET f, TYPE t",
           "SELECT Name, COUNT(*) FROM FLEET GROUP BY Type",
       }) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect(sql));
    Result<Relation> served = executor_->ExecuteSchemaOnly(stmt);
    Result<Relation> oracle = testing_util::ExecutorOracle::Run(empty, stmt);
    ASSERT_EQ(served.ok(), oracle.ok())
        << (served.ok() ? oracle.status() : served.status());
    EXPECT_EQ(executor_->last_stats().base_rows_loaded, 0u);
    if (!served.ok()) {
      EXPECT_EQ(served.status().ToString(), oracle.status().ToString());
      continue;
    }
    EXPECT_EQ(served->schema().attributes(), oracle->schema().attributes());
    EXPECT_EQ(Render(served->rows(), true), Render(oracle->rows(), true));
  }
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
