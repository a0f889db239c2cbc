// Experiment E10 (DESIGN.md): scaling behaviour, via google-benchmark.
// The paper motivates schema-guided candidate selection with "for a
// database that consists a very large volume of data" (§3.2); these
// micro-benchmarks measure how the pieces scale:
//   * rule induction time vs relation size,
//   * relationship-view construction vs size,
//   * forward inference latency vs rule-base size,
//   * rule-relation encode/decode vs rule count,
//   * induction speedup vs worker count (--threads sweep),
//   * row vs columnar induction (DESIGN.md §14) — also written to
//     BENCH_columnar.json with a 3x speedup floor (exit nonzero below),
//   * the batch executor on the 48k-row fleet (EXPERIMENTS.md E10)
//     and a single-variable QUEL retrieve on the 2.4k-row fleet.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "dictionary/data_dictionary.h"
#include "exec/thread_pool.h"
#include "induction/ils.h"
#include "induction/rule_induction.h"
#include "induction/inter_object.h"
#include "inference/engine.h"
#include "quel/quel_session.h"
#include "relational/column_store.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "rules/rule_relation.h"
#include "sql/sql_executor.h"
#include "testbed/fleet_generator.h"

namespace iqs {
namespace {

void BM_InduceSchemeVsRows(benchmark::State& state) {
  size_t per_type = static_cast<size_t>(state.range(0));
  auto db = GenerateFleet(per_type, 42);
  const Relation* ships = *db.value()->Get("BATTLESHIP");
  InductionConfig config;
  config.min_support = 3;
  for (auto _ : state) {
    auto rules = InduceScheme(*ships, "Displacement", "Type", config);
    benchmark::DoNotOptimize(rules);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ships->size()));
  state.counters["rows"] = static_cast<double>(ships->size());
}
BENCHMARK(BM_InduceSchemeVsRows)->Arg(10)->Arg(100)->Arg(1000)->Arg(4000);

// Row reference vs columnar sort-and-segment induction (DESIGN.md §14)
// over the same fleet relation, arg 1 selecting the path. The columnar
// snapshot is transposed once outside the timed loop, matching how
// Database::ColumnarSnapshot amortizes it across every induced pair.
void BM_InducePathVsRows(benchmark::State& state) {
  size_t per_type = static_cast<size_t>(state.range(0));
  bool columnar = state.range(1) != 0;
  auto db = GenerateFleet(per_type, 42);
  const Relation* ships = *db.value()->Get("BATTLESHIP");
  ColumnarRelation columns = ColumnarRelation::FromRelation(*ships);
  InductionConfig config;
  config.min_support = 3;
  InductionStats stats;
  for (auto _ : state) {
    auto rules = columnar
                     ? InduceSchemeColumnarWithStats(columns, "Displacement",
                                                     "Type", config, &stats)
                     : InduceSchemeRowsWithStats(*ships, "Displacement", "Type",
                                                 config, &stats);
    benchmark::DoNotOptimize(rules);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ships->size()));
  state.counters["rows"] = static_cast<double>(ships->size());
  state.counters["columnar"] = columnar ? 1.0 : 0.0;
}
BENCHMARK(BM_InducePathVsRows)
    ->ArgNames({"rows_per_type", "columnar"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({4000, 0})
    ->Args({4000, 1});

void BM_InduceAllFleet(benchmark::State& state) {
  size_t per_type = static_cast<size_t>(state.range(0));
  auto db = GenerateFleet(per_type, 42);
  auto catalog = BuildFleetCatalog();
  InductiveLearningSubsystem ils(db.value().get(), catalog.value().get());
  InductionConfig config;
  config.min_support = 3;
  for (auto _ : state) {
    auto rules = ils.InduceAll(config);
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rows"] = static_cast<double>(per_type * 12);
}
BENCHMARK(BM_InduceAllFleet)->Arg(10)->Arg(100)->Arg(500);

void BM_ForwardInferenceVsRuleCount(benchmark::State& state) {
  // Grow the rule base by lowering Nc on a large fleet.
  auto db = GenerateFleet(200, 42);
  auto catalog = BuildFleetCatalog();
  DataDictionary dictionary(catalog.value().get());
  (void)dictionary.BuildFrames();
  (void)dictionary.ComputeActiveDomains(*db.value());
  InductiveLearningSubsystem ils(db.value().get(), catalog.value().get());
  InductionConfig config;
  config.min_support = state.range(0);
  dictionary.SetInducedRules(*ils.InduceAll(config));
  InferenceEngine engine(&dictionary);
  QueryDescription query;
  query.object_types = {"BATTLESHIP"};
  query.conditions.push_back(Clause(
      "BATTLESHIP.Displacement", Interval::AtLeast(Value::Int(70000), true)));
  for (auto _ : state) {
    auto answer = engine.Infer(query, InferenceMode::kCombined);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["rules"] =
      static_cast<double>(dictionary.induced_rules().size());
}
BENCHMARK(BM_ForwardInferenceVsRuleCount)->Arg(50)->Arg(10)->Arg(3)->Arg(1);

void BM_RelationshipView(benchmark::State& state) {
  // Scale the banded ITEM/INSTALL-style join through the fleet's
  // BATTLESHIP -> SHIPTYPE object-domain reference.
  size_t per_type = static_cast<size_t>(state.range(0));
  auto db = GenerateFleet(per_type, 42);
  auto catalog = BuildFleetCatalog();
  // BATTLESHIP itself is not a relationship; benchmark the entity join
  // machinery through InduceInterObject's view over SHIPTYPE references.
  // (BuildRelationshipView requires object-domain attributes, which the
  // fleet schema does not declare — measure the SQL-free hash join the
  // ILS uses instead via InduceScheme on the base relation.)
  const Relation* ships = *db.value()->Get("BATTLESHIP");
  InductionConfig config;
  config.min_support = 3;
  for (auto _ : state) {
    auto rules = InduceScheme(*ships, "Id", "Type", config);
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rows"] = static_cast<double>(ships->size());
}
BENCHMARK(BM_RelationshipView)->Arg(100)->Arg(1000);

void BM_IndexedQueryVsScan(benchmark::State& state) {
  // Point-band query on a fleet, with and without a registered index
  // (arg 1 = indexed).
  auto db = GenerateFleet(static_cast<size_t>(state.range(0)), 42);
  if (state.range(1) != 0) {
    (void)db.value()->CreateIndex("BATTLESHIP", "Displacement");
  }
  SqlExecutor executor(db.value().get());
  const char* query =
      "SELECT Id FROM BATTLESHIP WHERE BATTLESHIP.Displacement >= 75700";
  for (auto _ : state) {
    auto result = executor.ExecuteSql(query);
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = static_cast<double>(state.range(0) * 12);
  state.counters["loaded"] =
      static_cast<double>(executor.last_stats().base_rows_loaded);
}
BENCHMARK(BM_IndexedQueryVsScan)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({4000, 0})
    ->Args({4000, 1});

// The batch executor's cases (E10): SqlExecutor::ExecuteSql end to end
// over GenerateFleet(4000, 42) (48k BATTLESHIP rows) with a warm columnar
// snapshot. items_per_second counts returned rows, so 1e9 / it is the
// cost per output row in ns.
void BM_Executor(benchmark::State& state) {
  static const char* const kQueries[] = {
      "SELECT COUNT(*) FROM BATTLESHIP",
      "SELECT Type, COUNT(*) FROM BATTLESHIP GROUP BY Type",
      "SELECT Name, Displacement FROM BATTLESHIP",
      "SELECT Name FROM BATTLESHIP WHERE Displacement BETWEEN 41500 AND "
      "45500",
      "SELECT BATTLESHIP.Name, SHIPTYPE.TypeName FROM BATTLESHIP, SHIPTYPE "
      "WHERE BATTLESHIP.Type = SHIPTYPE.Type AND "
      "BATTLESHIP.Displacement BETWEEN 81200 AND 81600",
  };
  static Database* db = GenerateFleet(4000, 42).value().release();
  SqlExecutor executor(db);
  const char* sql = kQueries[state.range(0)];
  size_t rows = 0;
  for (auto _ : state) {
    auto result = executor.ExecuteSql(sql);
    rows = result.ok() ? result->size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(sql);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["loaded"] =
      static_cast<double>(executor.last_stats().base_rows_loaded);
}
BENCHMARK(BM_Executor)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

// A single-variable QUEL retrieve of about 600 rows on GenerateFleet(200,
// 42) (2.4k rows): it lowers onto the executor.
void BM_QuelRetrieve(benchmark::State& state) {
  auto db = GenerateFleet(200, 42);
  QuelSession session(db.value().get());
  (void)session.ExecuteText("range of b is BATTLESHIP");
  const std::string retrieve =
      "retrieve (b.Name, b.Displacement) where b.Displacement > 40000";
  size_t rows = 0;
  for (auto _ : state) {
    auto result = session.ExecuteText(retrieve);
    rows = result.ok() ? result->relation.size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_QuelRetrieve)->Unit(benchmark::kMicrosecond);

void BM_RuleRelationRoundTrip(benchmark::State& state) {
  // Encode+decode a rule base of the requested size.
  int64_t n = state.range(0);
  RuleSet rules;
  for (int64_t i = 0; i < n; ++i) {
    Rule r;
    r.scheme = "X->Y";
    r.lhs.push_back(*Clause::Range("X", Value::Int(i * 10),
                                   Value::Int(i * 10 + 5)));
    r.rhs.clause = Clause::Equals("Y", Value::String("g" + std::to_string(i)));
    r.support = 3;
    rules.Add(std::move(r));
  }
  for (auto _ : state) {
    auto encoded = EncodeRules(rules);
    auto decoded = DecodeRules(*encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RuleRelationRoundTrip)->Arg(10)->Arg(100)->Arg(1000);

// Thread-count sweep: full induction over a 12-type fleet (the outer
// fan-out in InduceAll parallelizes across types, the inner scans across
// partitions). Registered per worker count by RegisterThreadSweep so the
// JSON carries one speedup curve: compare
// BM_InduceAllFleetParallel/<rows>/threads:1 against threads:4.
void BM_InduceAllFleetParallel(benchmark::State& state) {
  size_t per_type = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  auto db = GenerateFleet(per_type, 42);
  auto catalog = BuildFleetCatalog();
  InductiveLearningSubsystem ils(db.value().get(), catalog.value().get());
  InductionConfig config;
  config.min_support = 3;
  exec::SetGlobalThreadCount(threads);
  for (auto _ : state) {
    auto rules = ils.InduceAll(config);
    benchmark::DoNotOptimize(rules);
  }
  exec::SetGlobalThreadCount(1);
  state.counters["rows"] = static_cast<double>(per_type * 12);
  state.counters["threads"] = static_cast<double>(threads);
}

// E15 artifact: BENCH_columnar.json. One multi-block synthetic relation,
// two measurements — row vs columnar induction (floor: columnar must be
// at least 3x faster), and a narrow-band SQL scan whose zone maps prune
// most blocks, with the EXPLAIN-surface block counters recorded as proof
// the pruning fires (DESIGN.md §14).
constexpr size_t kColumnarBenchRows = 240 * 1024;  // 240 blocks of 1024
constexpr double kColumnarFloorSpeedup = 3.0;

// READINGS(K int, Tag string, D real): K cycles through 60k distinct
// values (every X value has support 4), Tag bands runs of 500 consecutive
// K values (the induced rules are ranges), and D ascends with the row
// index (narrow D bands cluster into single blocks, so zone maps prune).
Relation BuildReadings() {
  Relation rel("READINGS", Schema({{"K", ValueType::kInt, false},
                                   {"Tag", ValueType::kString, false},
                                   {"D", ValueType::kReal, false}}));
  for (size_t i = 0; i < kColumnarBenchRows; ++i) {
    const int64_t k = static_cast<int64_t>(i % 60000);
    Tuple row;
    row.Append(Value::Int(k));
    row.Append(Value::String("g" + std::to_string(k / 500)));
    row.Append(Value::Real(static_cast<double>(i)));
    rel.AppendUnchecked(std::move(row));
  }
  return rel;
}

template <typename Fn>
double BestMicros(Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < 5; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    if (r == 0 || micros < best) best = micros;
  }
  return best;
}

int ColumnarFloorReport() {
  Relation rel = BuildReadings();
  InductionConfig config;
  config.min_support = 3;

  // Transpose once, as Database::ColumnarSnapshot would per epoch.
  const auto transpose_start = std::chrono::steady_clock::now();
  ColumnarRelation columns = ColumnarRelation::FromRelation(rel);
  const double transpose_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - transpose_start)
          .count();

  InductionStats row_stats;
  InductionStats col_stats;
  size_t row_rules = 0;
  size_t col_rules = 0;
  const double rows_micros = BestMicros([&] {
    auto rules = InduceSchemeRowsWithStats(rel, "K", "Tag", config, &row_stats);
    if (!rules.ok()) std::abort();
    row_rules = rules->size();
  });
  const double columnar_micros = BestMicros([&] {
    auto rules =
        InduceSchemeColumnarWithStats(columns, "K", "Tag", config, &col_stats);
    if (!rules.ok()) std::abort();
    col_rules = rules->size();
  });
  if (row_rules != col_rules ||
      row_stats.distinct_pairs != col_stats.distinct_pairs) {
    std::fprintf(stderr, "FAIL: induction paths disagree (%zu vs %zu rules)\n",
                 row_rules, col_rules);
    return 1;
  }
  const double speedup = rows_micros / columnar_micros;

  // Rows 10240..10260 of D live in a single block; the zone maps should
  // discard everything else.
  Database db;
  if (Status s = db.AddRelation(std::move(rel)); !s.ok()) {
    std::fprintf(stderr, "add relation: %s\n", s.ToString().c_str());
    return 1;
  }
  SqlExecutor executor(&db);
  auto scan = executor.ExecuteSql(
      "SELECT K FROM READINGS WHERE READINGS.D >= 10240 AND READINGS.D <= "
      "10260");
  if (!scan.ok()) {
    std::fprintf(stderr, "scan: %s\n", scan.status().ToString().c_str());
    return 1;
  }
  const SqlExecutor::ExecutionStats& stats = executor.last_stats();

  std::printf(
      "E15: columnar induction + zone-map scan (%zu rows, %zu blocks)\n",
      kColumnarBenchRows, columns.block_count());
  std::printf("  induce rows %.0fus, columnar %.0fus -> %.2fx "
              "(transpose %.0fus, %zu rules)\n",
              rows_micros, columnar_micros, speedup, transpose_micros,
              row_rules);
  std::printf("  narrow band kept %zu rows; pruned %zu of %zu blocks\n",
              scan->size(), stats.columnar_blocks_pruned,
              stats.columnar_blocks_total);

  bench::BenchReport report("columnar");
  report.Add("rows", static_cast<double>(kColumnarBenchRows), "count");
  report.Add("blocks", static_cast<double>(columns.block_count()), "count");
  report.Add("induce_rows", rows_micros, "micros");
  report.Add("induce_columnar", columnar_micros, "micros");
  report.Add("induce_speedup", speedup, "x");
  report.Add("transpose", transpose_micros, "micros");
  report.Add("rules_induced", static_cast<double>(row_rules), "count");
  report.Add("scan_rows_selected", static_cast<double>(scan->size()),
             "count");
  report.Add("scan_blocks_total",
             static_cast<double>(stats.columnar_blocks_total), "count");
  report.Add("scan_blocks_pruned",
             static_cast<double>(stats.columnar_blocks_pruned), "count");
  report.Write();

  if (stats.columnar_tables == 0 || stats.columnar_blocks_pruned == 0) {
    std::fprintf(stderr, "FAIL: zone maps pruned nothing (%zu of %zu)\n",
                 stats.columnar_blocks_pruned, stats.columnar_blocks_total);
    return 1;
  }
  if (speedup < kColumnarFloorSpeedup) {
    std::fprintf(stderr,
                 "FAIL: %.2fx induce speedup is below the %.1fx floor\n",
                 speedup, kColumnarFloorSpeedup);
    return 1;
  }
  return 0;
}

void RegisterThreadSweep(const std::vector<long>& thread_counts) {
  benchmark::internal::Benchmark* bench = benchmark::RegisterBenchmark(
      "BM_InduceAllFleetParallel", BM_InduceAllFleetParallel);
  bench->ArgNames({"rows_per_type", "threads"});
  for (long per_type : {200L, 1000L}) {
    for (long threads : thread_counts) {
      bench->Args({per_type, threads});
    }
  }
}

}  // namespace
}  // namespace iqs

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// BENCH_scaling.json (JSON) so the scaling curves are machine-readable;
// an explicit --benchmark_out on the command line still wins. The extra
// --threads=1,2,4,8 flag (that default) picks the worker counts the
// BM_InduceAllFleetParallel sweep registers.
int main(int argc, char** argv) {
  std::vector<long> thread_counts = {1, 2, 4, 8};
  std::vector<char*> args;
  args.push_back(argv[0]);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts.clear();
      const char* p = argv[i] + 10;
      while (*p != '\0') {
        char* end = nullptr;
        long n = std::strtol(p, &end, 10);
        if (end == p || n < 1) {
          std::cerr << "bad --threads list: " << argv[i] << "\n";
          return 2;
        }
        thread_counts.push_back(n);
        p = (*end == ',') ? end + 1 : end;
      }
      continue;  // consumed; not a google-benchmark flag
    }
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
    args.push_back(argv[i]);
  }
  iqs::RegisterThreadSweep(thread_counts);
  static char out_flag[] = "--benchmark_out=BENCH_scaling.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) std::cout << "wrote BENCH_scaling.json\n";
  // E15 artifact + floor: BENCH_columnar.json (DESIGN.md §14).
  return iqs::ColumnarFloorReport();
}
