// Determinism contract of the parallel execution layer: for any worker
// count, every pipeline stage must produce output byte-identical to the
// serial run (ISSUE: ordered chunk merges + commutative accumulators).

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "induction/ils.h"
#include "inference/engine.h"
#include "obs/metrics.h"
#include "relational/algebra.h"
#include "relational/column_store.h"
#include "sql/sql_executor.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

// Runs each testbed query at the given worker count and returns one big
// rendered transcript (extensional table + intensional prose).
std::string RenderQueries(IqsSystem& system,
                          const std::vector<std::string>& queries,
                          size_t threads) {
  exec::SetGlobalThreadCount(threads);
  std::string out;
  for (const std::string& sql : queries) {
    auto result = system.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    if (!result.ok()) continue;
    out += "== " + sql + " ==\n";
    out += result->extensional.ToTable();
    out += system.Explain(*result);
  }
  return out;
}

const std::vector<std::string>& ShipQueries() {
  static const std::vector<std::string> queries = {
      Example1Sql(),
      Example2Sql(),
      Example3Sql(),
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'",
      "SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY Type",
      "SELECT MIN(Displacement), MAX(Displacement) FROM CLASS",
  };
  return queries;
}

const std::vector<std::string>& EmployeeQueries() {
  static const std::vector<std::string> queries = {
      "SELECT Name FROM EMPLOYEE WHERE Salary > 100000",
      "SELECT Name, Position FROM EMPLOYEE WHERE Age >= 40",
      "SELECT Position, COUNT(*) FROM EMPLOYEE GROUP BY Position "
      "ORDER BY Position",
  };
  return queries;
}

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = exec::GlobalThreadCount(); }
  void TearDown() override { exec::SetGlobalThreadCount(previous_); }
  size_t previous_ = 1;
};

TEST_F(ParallelExecTest, ShipAnswersAreByteIdenticalAcrossThreadCounts) {
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig config;
  config.min_support = 3;
  ASSERT_OK(system->Induce(config));
  std::string serial = RenderQueries(*system, ShipQueries(), 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(RenderQueries(*system, ShipQueries(), 2), serial);
  EXPECT_EQ(RenderQueries(*system, ShipQueries(), 8), serial);
}

TEST_F(ParallelExecTest, EmployeeAnswersAreByteIdenticalAcrossThreadCounts) {
  auto system = testing_util::EmployeeSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig config;
  config.min_support = 3;
  ASSERT_OK(system->Induce(config));
  std::string serial = RenderQueries(*system, EmployeeQueries(), 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(RenderQueries(*system, EmployeeQueries(), 2), serial);
  EXPECT_EQ(RenderQueries(*system, EmployeeQueries(), 8), serial);
}

TEST_F(ParallelExecTest, InducedRuleBaseIdenticalAcrossThreadCounts) {
  // Rule text AND rule ids must match: InduceSlots merges candidate
  // results in slot order before RuleSet numbering.
  auto db = testing_util::ShipDatabaseOrFail();
  auto catalog = testing_util::ShipCatalogOrFail();
  ASSERT_TRUE(db != nullptr && catalog != nullptr);
  InductiveLearningSubsystem ils(db.get(), catalog.get());
  InductionConfig config;
  config.min_support = 3;
  std::string serial;
  for (size_t threads : {1, 2, 8}) {
    exec::SetGlobalThreadCount(threads);
    auto rules = ils.InduceAll(config);
    ASSERT_TRUE(rules.ok()) << rules.status();
    if (threads == 1) {
      serial = rules->ToString();
      ASSERT_FALSE(serial.empty());
    } else {
      EXPECT_EQ(rules->ToString(), serial) << "threads=" << threads;
    }
  }
}

TEST_F(ParallelExecTest, SelectionMatchesSerialOnLargeInput) {
  // 5000 joined rows through the executor's partitioned WHERE filter:
  // row order must be the serial filter order (concatenation merge in
  // chunk order). A two-entry FROM keeps the full WHERE out of the scan,
  // so the filter runs over the cross product.
  Database db;
  ASSERT_OK_AND_ASSIGN(
      Relation * rel,
      db.CreateRelation("NUMBERS", Schema({{"N", ValueType::kInt, true}})));
  for (int i = 0; i < 5000; ++i) {
    ASSERT_OK(rel->Insert(Tuple{Value::Int(i * 7 % 5000)}));
  }
  ASSERT_OK_AND_ASSIGN(
      Relation * one,
      db.CreateRelation("ONE", Schema({{"U", ValueType::kInt, true}})));
  ASSERT_OK(one->Insert(Tuple{Value::Int(1)}));
  SqlExecutor executor(&db);
  const std::string sql =
      "SELECT N FROM NUMBERS, ONE WHERE N < 1000 OR N > 4500";
  exec::SetGlobalThreadCount(1);
  ASSERT_OK_AND_ASSIGN(Relation serial, executor.ExecuteSql(sql));
  EXPECT_EQ(executor.last_stats().columnar_tables, 2u);
  EXPECT_EQ(executor.last_stats().base_rows_loaded, 5001u);
  EXPECT_EQ(serial.size(), 1499u);
  for (size_t threads : {2, 8}) {
    exec::SetGlobalThreadCount(threads);
    ASSERT_OK_AND_ASSIGN(Relation parallel, executor.ExecuteSql(sql));
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    EXPECT_EQ(parallel.ToTable(), serial.ToTable()) << "threads=" << threads;
  }
}

TEST_F(ParallelExecTest, ColumnarScanFansOutOnlyWhenBlocksPayForIt) {
  // Without a residual the scan stays on the caller below 64 blocks, so
  // a restriction over a few thousand rows wakes no worker; a residual,
  // or 64 blocks, fans out. Either way the row ids are the serial scan's.
  fault::Site* dispatch =
      fault::FailpointRegistry::Global().GetSite("exec.dispatch");
  const std::vector<ColumnCondition> conditions = {
      {0, CompareOp::kLt, Value::Int(10)}};
  PredicatePtr residual = MakeCompare(CompareOp::kNe, MakeColumn(0),
                                      MakeConstant(Value::Int(3)));
  for (size_t blocks : {63, 64}) {
    Relation rel("N", Schema({{"K", ValueType::kInt, false}}));
    for (size_t i = 0; i < blocks * kColumnarBlockRows; ++i) {
      rel.AppendUnchecked(Tuple{Value::Int(static_cast<int64_t>(i % 1000))});
    }
    ColumnarRelation cols = ColumnarRelation::FromRelation(rel);
    const std::vector<const Predicate*> residuals = {nullptr, residual.get()};
    for (const Predicate* rest : residuals) {
      exec::SetGlobalThreadCount(1);
      ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> serial,
                           ColumnarScan(cols, conditions, rest, nullptr));
      exec::SetGlobalThreadCount(4);
      const uint64_t before = dispatch->hits();
      ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> parallel,
                           ColumnarScan(cols, conditions, rest, nullptr));
      EXPECT_EQ(parallel, serial);
      const bool fans_out = rest != nullptr || blocks == 64;
      EXPECT_EQ(dispatch->hits() - before, fans_out ? 1u : 0u)
          << blocks << " blocks, residual " << (rest != nullptr);
    }
  }
}

TEST_F(ParallelExecTest, ReduceMergesChunksInIndexOrder) {
  exec::SetGlobalThreadCount(8);
  // Concatenation of chunk begins: only the chunk-index merge order
  // reproduces this exact sequence.
  std::vector<size_t> begins = exec::ParallelReduce<std::vector<size_t>>(
      "test.region", 4096, 16, {},
      [](size_t begin, size_t end) {
        (void)end;
        return std::vector<size_t>{begin};
      },
      [](std::vector<size_t>* acc, std::vector<size_t>&& part) {
        for (size_t b : part) acc->push_back(b);
      });
  ASSERT_GT(begins.size(), 1u);
  for (size_t i = 1; i < begins.size(); ++i) {
    EXPECT_LT(begins[i - 1], begins[i]);
  }
}

TEST_F(ParallelExecTest, ForVisitsEveryIndexOnce) {
  exec::SetGlobalThreadCount(4);
  std::vector<int> hits(10000, 0);
  exec::ParallelFor("test.region", hits.size(), 16,
                    [&hits](size_t i) { hits[i] += 1; });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST_F(ParallelExecTest, NestedRegionsRunInlineOnWorkers) {
  exec::SetGlobalThreadCount(2);
  std::vector<int> totals(64, 0);
  exec::ParallelFor("test.outer", totals.size(), 1, [&totals](size_t i) {
    // A nested region on a pool worker must not resubmit to the pool.
    int sum = exec::ParallelReduce<int>(
        "test.inner", 1000, 10, 0,
        [](size_t begin, size_t end) {
          return static_cast<int>(end - begin);
        },
        [](int* acc, int&& part) { *acc += part; });
    totals[i] = sum;
  });
  for (int total : totals) EXPECT_EQ(total, 1000);
}

#ifndef IQS_OBS_DISABLED
TEST_F(ParallelExecTest, RegionsReportPoolMetricsAndTimings) {
  obs::GlobalMetrics().ResetAll();
  exec::SetGlobalThreadCount(4);
  exec::ParallelFor("test.metrics.region", 4096, 16, [](size_t) {});
  EXPECT_GT(obs::GlobalMetrics().GetCounter("exec.pool.tasks")->value(), 0u);
  EXPECT_GE(
      obs::GlobalMetrics().GetHistogram("test.metrics.region.micros")->count(),
      1u);
}
#endif  // IQS_OBS_DISABLED

}  // namespace
}  // namespace iqs
