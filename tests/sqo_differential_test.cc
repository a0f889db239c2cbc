// Differential-testing harness for the semantic rewrite pass
// (DESIGN.md §12): every query runs twice against the same ship system,
// once with sqo off and once with sqo on, and the extensional answers
// must be byte-identical — rewrites are allowed to change how a query
// executes, never what it returns. The corpus is a hand-picked golden
// set covering every rewrite kind plus shapes the pass must decline
// (ORs, joins, aggregates, unsafe conjuncts), followed by a seeded fuzz
// sweep over the real SUBMARINE/CLASS schema. A divergence dumps the
// query and every fired rewrite step so the failure is diagnosable from
// the log alone. Labeled "sqo".

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "gtest/gtest.h"
#include "induction/ils.h"
#include "sql/sqo_rewrite.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

// One run of a query under a fixed rewrite mode, reduced to exactly what
// the differential comparison needs.
struct RunOutcome {
  bool ok = false;
  std::string error;        // status text when !ok
  std::string table;        // extensional rows when ok
  std::vector<std::string> steps;  // fired rewrites, human-rendered
};

class SqoDifferentialTest : public ::testing::Test {
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
    system_->processor().set_sqo_mode(SqoMode::kOff);
    system_->processor().cache().Clear();
  }

  static RunOutcome RunMode(const std::string& sql, SqoMode mode) {
    system_->processor().set_sqo_mode(mode);
    auto result = system_->Query(sql);
    RunOutcome out;
    out.ok = result.ok();
    if (!out.ok) {
      out.error = result.status().ToString();
      return out;
    }
    out.table = result->extensional.ToTable();
    for (const RewriteStep& step : result->rewrites) {
      out.steps.push_back(step.ToString());
    }
    return out;
  }

  // Runs `sql` under both modes and fails the test on any divergence.
  // Returns the number of rewrite steps that fired, so callers can
  // assert the corpus is not vacuous.
  static size_t ExpectEquivalent(const std::string& sql) {
    RunOutcome off = RunMode(sql, SqoMode::kOff);
    // The plan cache is keyed by SQL, so clear between modes to make the
    // second run take the same cold path as the first.
    system_->processor().cache().Clear();
    RunOutcome on = RunMode(sql, SqoMode::kOn);
    std::string fired;
    for (const std::string& step : on.steps) fired += "\n    " + step;
    if (fired.empty()) fired = " (none)";
    EXPECT_EQ(off.ok, on.ok)
        << "status diverged for: " << sql << "\n  off: "
        << (off.ok ? "ok" : off.error) << "\n  on:  "
        << (on.ok ? "ok" : on.error) << "\n  fired rewrites:" << fired;
    if (off.ok && on.ok) {
      EXPECT_EQ(off.table, on.table)
          << "extensional answer diverged for: " << sql
          << "\n  fired rewrites:" << fired << "\n-- sqo off --\n"
          << off.table << "-- sqo on --\n" << on.table;
    } else if (!off.ok && !on.ok) {
      EXPECT_EQ(off.error, on.error)
          << "error text diverged for: " << sql
          << "\n  fired rewrites:" << fired;
    }
    return on.steps.size();
  }

  static IqsSystem* system_;
};

IqsSystem* SqoDifferentialTest::system_ = nullptr;

// Hand-picked queries: the three paper examples, every rewrite-kind
// trigger, and the shapes the pass must leave alone. Comments mark what
// each row is there to exercise.
const std::vector<std::string>& GoldenCorpus() {
  static const std::vector<std::string>* corpus = new std::vector<
      std::string>{
      Example1Sql(),  // paper example 1
      Example2Sql(),  // paper example 2
      Example3Sql(),  // paper example 3
      // Point restriction on an induced scheme: narrowing candidate.
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'",
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN'",
      // Redundant range conjunct: elimination candidate.
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
      "AND Displacement > 1000",
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
      "AND Displacement BETWEEN 1000 AND 30000",
      // Range disjoint from the implied band: empty-proof candidate.
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
      "AND Displacement < 100",
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
      "AND Displacement > 99999",
      // Rule-subsumed shape (intensional-only in kIntensional mode; in
      // kOn it must still answer extensionally and identically).
      "SELECT Class FROM CLASS WHERE Type = 'SSN'",
      // Join across the induced scheme: the pass must stay sound with
      // two FROM tables.
      "SELECT SUBMARINE.Id FROM SUBMARINE, CLASS "
      "WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Type = 'SSBN'",
      "SELECT SUBMARINE.Name, CLASS.ClassName FROM SUBMARINE, CLASS "
      "WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Displacement > 8000",
      // Disjunction: conversion is unsound conjunct-wise, pass declines.
      "SELECT Id FROM SUBMARINE WHERE Class = '0204' OR Class = '0101'",
      // Negation and inequality operators.
      "SELECT Id FROM SUBMARINE WHERE Class <> '0204'",
      "SELECT ClassName FROM CLASS WHERE Type <> 'SSBN' "
      "AND Displacement >= 3000",
      // Aggregates / grouping / ordering / distinct over rewritable
      // WHEREs: the projection pipeline must see identical input rows.
      "SELECT Type, COUNT(*) FROM CLASS WHERE Displacement > 1000 "
      "GROUP BY Type",
      "SELECT Class, COUNT(*) FROM SUBMARINE GROUP BY Class",
      "SELECT DISTINCT Class FROM SUBMARINE WHERE Class = '0204'",
      "SELECT Name FROM SUBMARINE WHERE Class = '0204' ORDER BY Name DESC",
      "SELECT MIN(Displacement), MAX(Displacement) FROM CLASS "
      "WHERE Type = 'SSBN'",
      // No WHERE at all: nothing to rewrite.
      "SELECT Name FROM SUBMARINE",
      // Value outside the active domain: empty either way.
      "SELECT Id FROM SUBMARINE WHERE Class = '9999'",
      "SELECT ClassName FROM CLASS WHERE Type = 'XX' "
      "AND Displacement > 5000",
      // Bind error: must fail identically under both modes.
      "SELECT Id FROM SUBMARINE WHERE NoSuchColumn = '0204'",
  };
  return *corpus;
}

TEST_F(SqoDifferentialTest, GoldenCorpusIsAnswerPreserving) {
  size_t fired = 0;
  for (const std::string& sql : GoldenCorpus()) {
    fired += ExpectEquivalent(sql);
  }
  // Non-vacuity: the corpus must actually exercise the pass, not just
  // shapes it declines.
  EXPECT_GE(fired, 4u) << "golden corpus fired too few rewrites";
}

TEST_F(SqoDifferentialTest, IntensionalModeNeverChangesTheIntension) {
  // kIntensional may empty the extensional pass for rule-subsumed
  // queries, so the differential contract there is on the *intensional*
  // answer and on soundness of the subsumption: when the optimizer
  // answers from rules alone, the rows it skipped must be exactly the
  // rows the extensional pass would have returned descriptions of.
  const std::string sql = "SELECT Class FROM CLASS WHERE Type = 'SSBN'";
  RunOutcome off = RunMode(sql, SqoMode::kOff);
  system_->processor().cache().Clear();
  system_->processor().set_sqo_mode(SqoMode::kIntensional);
  auto on = system_->Query(sql);
  ASSERT_TRUE(off.ok);
  ASSERT_OK(on.status());
  if (on->stats.sqo_intensional_only) {
    EXPECT_EQ(on->stats.rows_scanned, 0u);
    EXPECT_GT(on->intensional.size(), 0u);
  } else {
    EXPECT_EQ(on->extensional.ToTable(), off.table);
  }
}

// Seeded grammar fuzzing over the real ship schema: conjunctive WHEREs
// with literals drawn from the actual active domains (plus off-domain
// decoys), so a healthy fraction of queries intersect induced rule
// families. SplitMix64 keeps the stream platform-stable.
class ShipQueryFuzzer {
 public:
  explicit ShipQueryFuzzer(uint64_t seed)
      : state_(seed), spelling_state_(~seed) {}

  std::string Next() {
    const bool join = Pick(4) == 0;
    const char* table = join ? nullptr : (Pick(2) == 0 ? "SUBMARINE"
                                                       : "CLASS");
    std::string sql = "SELECT ";
    sql += join ? "SUBMARINE.Name" : Column(table);
    sql += " FROM ";
    sql += join ? "SUBMARINE, CLASS" : table;
    sql += " WHERE ";
    if (join) sql += "SUBMARINE.Class = CLASS.Class AND ";
    respelled_ = sql;
    const size_t conjuncts = 1 + Pick(3);
    for (size_t i = 0; i < conjuncts; ++i) {
      if (i > 0) {
        sql += " AND ";
        respelled_ += " AND ";
      }
      Spellings conjunct =
          Conjunct(join ? (Pick(2) == 0 ? "SUBMARINE" : "CLASS") : table,
                   join);
      sql += conjunct.typed;
      respelled_ += conjunct.respelled;
    }
    return sql;
  }

  // The query Next() last returned, respelled: numeric literals quoted,
  // comparisons turned literal-left, BETWEEN bounds of mixed spelling.
  // It binds to the same typed constants, so it must answer exactly
  // like the original. The choices come from a second stream, so the
  // typed queries are the same with or without this.
  const std::string& respelled() const { return respelled_; }

 private:
  struct Spellings {
    std::string typed;
    std::string respelled;
  };

  static uint64_t SplitMix(uint64_t* state) {
    // SplitMix64 — matches the generator idiom in testbed/.
    uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Pick(size_t n) { return static_cast<size_t>(SplitMix(&state_) % n); }
  size_t PickSpelling(size_t n) {
    return static_cast<size_t>(SplitMix(&spelling_state_) % n);
  }

  static std::string Quote(const std::string& literal) {
    return "'" + literal + "'";
  }
  static std::string Mirror(const std::string& op) {
    if (op == "<") return ">";
    if (op == "<=") return ">=";
    if (op == ">") return "<";
    if (op == ">=") return "<=";
    return op;  // = and <> are symmetric
  }

  std::string Column(const char* table) {
    if (std::string(table) == "SUBMARINE") {
      static const char* kCols[] = {"Id", "Name", "Class"};
      return kCols[Pick(3)];
    }
    static const char* kCols[] = {"Class", "ClassName", "Type",
                                  "Displacement"};
    return kCols[Pick(4)];
  }

  Spellings Conjunct(const char* table, bool qualify) {
    std::string col = Column(table);
    std::string lhs = qualify ? std::string(table) + "." + col : col;
    const bool numeric = col == "Displacement";
    if (numeric && Pick(4) == 0) {
      int lo = Literal();
      int hi = Literal();
      if (lo > hi) std::swap(lo, hi);
      std::string low = std::to_string(lo);
      std::string high = std::to_string(hi);
      std::string typed = lhs + " BETWEEN " + low + " AND " + high;
      switch (PickSpelling(3)) {
        case 0: low = Quote(low); break;
        case 1: high = Quote(high); break;
        default: low = Quote(low); high = Quote(high); break;
      }
      return {typed, lhs + " BETWEEN " + low + " AND " + high};
    }
    static const char* kOps[] = {"=", "<", "<=", ">", ">=", "<>"};
    std::string op = kOps[numeric ? Pick(6) : (Pick(3) == 0 ? Pick(6)
                                                            : 0)];
    std::string rhs;
    if (numeric) {
      rhs = std::to_string(Literal());
    } else if (col == "Class") {
      static const char* kClasses[] = {"'0101'", "'0204'", "'0215'",
                                       "'1301'", "'2101'", "'9999'"};
      rhs = kClasses[Pick(6)];
    } else if (col == "Type") {
      static const char* kTypes[] = {"'SSBN'", "'SSN'", "'SSGN'", "'XX'"};
      rhs = kTypes[Pick(4)];
    } else {
      static const char* kStrings[] = {"'Ohio'", "'Typhoon'", "'Lafayette'",
                                       "'zzz'", "''"};
      rhs = kStrings[Pick(5)];
    }
    std::string typed = lhs + " " + op + " " + rhs;
    // Strings can only move to the left; numerics may also be quoted.
    switch (numeric ? PickSpelling(3) : 1) {
      case 0: return {typed, lhs + " " + op + " " + Quote(rhs)};
      case 1: return {typed, rhs + " " + Mirror(op) + " " + lhs};
      default: return {typed, Quote(rhs) + " " + Mirror(op) + " " + lhs};
    }
  }

  int Literal() {
    static const int kDisplacements[] = {0,    100,  1000,  2500, 6000,
                                         8250, 9000, 16600, 18700, 30000};
    return kDisplacements[Pick(10)];
  }

  uint64_t state_;
  uint64_t spelling_state_;
  std::string respelled_;
};

TEST_F(SqoDifferentialTest, SeededFuzzCorpusIsAnswerPreserving) {
  ShipQueryFuzzer fuzzer(0x51005EEDULL);
  size_t fired = 0;
  for (int i = 0; i < 250; ++i) {
    fired += ExpectEquivalent(fuzzer.Next());
    if (HasFailure()) break;  // first divergence already dumped the query
  }
  EXPECT_GE(fired, 10u) << "fuzz corpus fired too few rewrites to count "
                           "as differential coverage";
}

// Every respelling of a fuzzed query binds to the typed constants, so it
// answers exactly like the typed spelling — rows, intensional answer and
// status — under both modes, and soundly (paper §4). Uncached, so each
// spelling derives its own answer.
TEST_F(SqoDifferentialTest, SeededRespellingsAnswerLikeTheTypedSpelling) {
  ShipQueryFuzzer fuzzer(0x5EE11EDULL);
  for (int i = 0; i < 150; ++i) {
    const std::string typed = fuzzer.Next();
    const std::string respelled = fuzzer.respelled();
    SCOPED_TRACE(typed + "\n  respelled: " + respelled);
    for (SqoMode mode : {SqoMode::kOff, SqoMode::kOn}) {
      QueryOptions options;
      options.sqo = mode;
      options.use_cache = false;
      auto want = system_->Query(typed, options);
      auto got = system_->Query(respelled, options);
      ASSERT_EQ(want.ok(), got.ok())
          << (want.ok() ? got.status() : want.status());
      if (!want.ok()) {
        EXPECT_EQ(want.status().ToString(), got.status().ToString());
        continue;
      }
      EXPECT_EQ(want->extensional.ToTable(), got->extensional.ToTable());
      EXPECT_EQ(want->intensional.ToString(), got->intensional.ToString());
      testing_util::ExpectSoundAnswer(*system_, *want, typed);
      testing_util::ExpectSoundAnswer(*system_, *got, respelled);
    }
    if (HasFailure()) break;  // the trace already names the query
  }
}

}  // namespace
}  // namespace iqs
