// Concurrent use of one IqsSystem: SELECTs, EXPLAIN ANALYZE-style traced
// queries, and re-induction all race against each other. The rule base is
// swapped atomically (DataDictionary snapshots), extensional answers are
// rule-independent, and per-thread results must match the serial run.
// Labeled "stress" in ctest; build with -DIQS_SANITIZE=thread and run
// `ctest -L stress` (or the check-tsan target) for the ThreadSanitizer
// pass. Everything is seeded — no wall-clock or random scheduling inputs
// beyond the OS scheduler itself.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "exec/thread_pool.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "sql/sqo_rewrite.h"
#include "tests/json_test_util.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

#ifdef IQS_TSAN
constexpr int kIterations = 8;  // TSan multiplies runtime ~10x
#else
constexpr int kIterations = 40;
#endif

constexpr size_t QueryCacheCapacityDefault() {
  return cache::QueryCache::kDefaultCapacity;
}

const std::vector<std::string>& StressQueries() {
  static const std::vector<std::string> queries = {
      Example1Sql(),
      Example2Sql(),
      Example3Sql(),
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'",
      "SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY Type",
  };
  return queries;
}

TEST(ConcurrencyStressTest, MixedQueriesExplainAndReinduction) {
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig nc3;
  nc3.min_support = 3;
  ASSERT_OK(system->Induce(nc3));
  exec::SetGlobalThreadCount(4);

  // Serial baseline: the extensional table per query (rule-base swaps
  // change intensional prose, never the extensional rows).
  std::map<std::string, std::string> expected;
  for (const std::string& sql : StressQueries()) {
    auto result = system->Query(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
    expected[sql] = result->extensional.ToTable();
  }

  std::atomic<int> failures{0};
  auto note_failure = [&failures](const std::string& what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  std::vector<std::thread> threads;
  // Three query threads, each with its own seeded query order.
  for (unsigned seed = 1; seed <= 3; ++seed) {
    threads.emplace_back([&, seed] {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<size_t> pick(0, StressQueries().size() - 1);
      for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
        const std::string& sql = StressQueries()[pick(rng)];
        auto result = system->Query(sql);
        if (!result.ok()) {
          note_failure(sql + " -> " + result.status().ToString());
          continue;
        }
        if (result->extensional.ToTable() != expected[sql]) {
          note_failure("extensional drift under concurrency: " + sql);
        }
      }
    });
  }
  // One EXPLAIN ANALYZE thread: query + prose under a scoped trace (the
  // shell's explain path).
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
      obs::ScopedTrace scope("stress.explain");
      auto result = system->Query(StressQueries()[i % StressQueries().size()]);
      if (!result.ok()) {
        note_failure("explain query -> " + result.status().ToString());
        continue;
      }
      std::string prose = system->Explain(*result);
      if (prose.empty()) note_failure("empty explain prose");
    }
  });
  // One re-induction thread alternating thresholds, swapping the rule
  // base under the query threads.
  threads.emplace_back([&] {
    InductionConfig nc1;
    nc1.min_support = 1;
    for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
      Status s = system->Induce(i % 2 == 0 ? nc1 : nc3);
      if (!s.ok()) note_failure("induce -> " + s.ToString());
    }
  });
  for (std::thread& t : threads) t.join();
  exec::SetGlobalThreadCount(1);

  // The system must settle back to the canonical Nc=3 rule base.
  ASSERT_OK(system->Induce(nc3));
  EXPECT_EQ(system->dictionary().induced_rules().size(), 18u);
  for (const std::string& sql : StressQueries()) {
    auto result = system->Query(sql);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_EQ(result->extensional.ToTable(), expected[sql]) << sql;
  }
}

TEST(ConcurrencyStressTest, FaultInjectionUnderLoad) {
  // The query/explain/induction mix again, but with probabilistic
  // failpoints (fixed seeds) flickering on the intensional half of the
  // pipeline the whole time. Degradation must stay graceful under
  // concurrency: queries never fail, extensional answers never drift,
  // induction faults keep the previous rule base, and everything is
  // data-race-free under -DIQS_SANITIZE=thread.
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig nc3;
  nc3.min_support = 3;
  ASSERT_OK(system->Induce(nc3));
  exec::SetGlobalThreadCount(4);

  std::map<std::string, std::string> expected;
  for (const std::string& sql : StressQueries()) {
    auto result = system->Query(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
    expected[sql] = result->extensional.ToTable();
  }

  // Fixed seeds -> each site's fire sequence is deterministic per hit
  // index; only the thread interleaving varies.
  ASSERT_OK(fault::FailpointRegistry::Global().SetFromList(
      "infer.fire=prob(0.3,101):error(unavailable,injected outage); "
      "infer.match=prob(0.2,202):error(internal,injected match fault); "
      "ils.induce=prob(0.3,303):error(unavailable,injected induce fault); "
      "exec.dispatch=prob(0.2,404):error(unavailable,injected dispatch "
      "fault)"));

  std::atomic<int> failures{0};
  std::atomic<uint64_t> degraded_queries{0};
  auto note_failure = [&failures](const std::string& what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  std::vector<std::thread> threads;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    threads.emplace_back([&, seed] {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<size_t> pick(0, StressQueries().size() - 1);
      for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
        const std::string& sql = StressQueries()[pick(rng)];
        auto result = system->Query(sql);
        if (!result.ok()) {
          note_failure("query failed under fault load: " + sql + " -> " +
                       result.status().ToString());
          continue;
        }
        if (result->degraded()) degraded_queries.fetch_add(1);
        if (result->extensional.ToTable() != expected[sql]) {
          note_failure("extensional drift under fault load: " + sql);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
      obs::ScopedTrace scope("stress.fault_explain");
      auto result = system->Query(StressQueries()[i % StressQueries().size()]);
      if (!result.ok()) {
        note_failure("explain query under fault load -> " +
                     result.status().ToString());
        continue;
      }
      if (system->Explain(*result).empty()) note_failure("empty prose");
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations; ++i) {
      // An induction fault is expected traffic here: kKeepPrevious means
      // the installed rule base stays valid for the query threads.
      Status s = system->Induce(nc3);
      if (!s.ok() && s.code() != StatusCode::kUnavailable) {
        note_failure("induce failed non-transiently -> " + s.ToString());
      }
    }
  });
  for (std::thread& t : threads) t.join();
  fault::FailpointRegistry::Global().ClearAll();
  exec::SetGlobalThreadCount(1);

  // Settled state: faults cleared, canonical rule base, clean answers.
  ASSERT_OK(system->Induce(nc3));
  for (const std::string& sql : StressQueries()) {
    auto result = system->Query(sql);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_TRUE(result->degradations.empty()) << sql;
    EXPECT_EQ(result->extensional.ToTable(), expected[sql]) << sql;
  }
}

TEST(ConcurrencyStressTest, CacheReadersRacingInvalidationStorm) {
  // Query threads hammer the plan/answer caches while a storm thread
  // invalidates everything it can: re-induction (rule epoch), mutable
  // table access (database epoch), capacity shrink/grow, explicit
  // Clear(), and enable/disable flips. Correctness bar: every query
  // succeeds with the serial extensional bytes and renders the serial
  // intensional answer, and every access is data-race-free under
  // -DIQS_SANITIZE=thread. Versioned keys mean a racing reader can at
  // worst *miss* — never observe a stale answer.
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig nc3;
  nc3.min_support = 3;
  ASSERT_OK(system->Induce(nc3));
  exec::SetGlobalThreadCount(4);
  cache::QueryCache& cache = system->processor().cache();

  std::map<std::string, std::string> expected;
  std::map<std::string, std::string> expected_render;
  for (const std::string& sql : StressQueries()) {
    auto result = system->Query(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
    expected[sql] = result->extensional.ToTable();
    expected_render[sql] = system->Explain(*result);
  }

  std::atomic<int> failures{0};
  auto note_failure = [&failures](const std::string& what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  std::vector<std::thread> threads;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    threads.emplace_back([&, seed] {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<size_t> pick(0, StressQueries().size() - 1);
      for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
        const std::string& sql = StressQueries()[pick(rng)];
        auto result = system->Query(sql);
        if (!result.ok()) {
          note_failure(sql + " -> " + result.status().ToString());
          continue;
        }
        if (result->extensional.ToTable() != expected[sql]) {
          note_failure("stale or drifted answer under invalidation: " + sql);
        }
        // Cached answers are shared bodies: rendering one races the
        // other readers of the same statements.
        if (system->Explain(*result) != expected_render[sql]) {
          note_failure("drifted intensional rendering: " + sql);
        }
      }
    });
  }
  // The invalidation storm.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
      switch (i % 5) {
        case 0: {
          Status s = system->Induce(nc3);
          if (!s.ok()) note_failure("induce -> " + s.ToString());
          break;
        }
        case 1:
          // Epoch bump via mutable table access (no actual edit needed).
          if (!system->database().GetMutable("SUBMARINE").ok()) {
            note_failure("GetMutable failed");
          }
          break;
        case 2:
          cache.set_capacity(i % 2 == 0 ? 2 : QueryCacheCapacityDefault());
          break;
        case 3:
          cache.Clear();
          break;
        case 4:
          cache.set_enabled(false);
          cache.set_enabled(true);
          break;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  exec::SetGlobalThreadCount(1);

  // Settle: canonical rule base, warm cache serves the same bytes.
  cache.set_enabled(true);
  cache.set_capacity(QueryCacheCapacityDefault());
  ASSERT_OK(system->Induce(nc3));
  for (const std::string& sql : StressQueries()) {
    auto cold = system->Query(sql);
    ASSERT_TRUE(cold.ok()) << sql;
    auto warm = system->Query(sql);
    ASSERT_TRUE(warm.ok()) << sql;
    EXPECT_EQ(cold->extensional.ToTable(), expected[sql]) << sql;
    EXPECT_EQ(warm->extensional.ToTable(), expected[sql]) << sql;
  }
  EXPECT_GT(cache.answers().counters().hits, 0u);
}

TEST(ConcurrencyStressTest, QueryLogSinkRace) {
  // Appenders, a ring reader, a flusher, and a knob-twiddler all hit one
  // QueryLog with a file sink and a tiny rotation budget. Correctness
  // bar: no lost appends, every flushed line is complete JSON (rotation
  // never splits a record), and no data races under -DIQS_SANITIZE=thread.
  std::string dir = ::testing::TempDir() + "/iqs_qlog_race";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  obs::QueryLog log(/*ring_capacity=*/32);
  ASSERT_OK(log.SetFile(dir + "/q.jsonl"));
  log.set_rotate_bytes(2048);

  constexpr int kWriters = 3;
  const int per_writer = kIterations * 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < per_writer; ++i) {
        obs::QueryLogRecord r;
        r.sql = "select " + std::to_string(w) + "/" + std::to_string(i);
        r.mode = "combined";
        r.stats.total_micros = i;
        log.Append(std::move(r));
      }
    });
  }
  threads.emplace_back([&] {  // ring reader
    for (int i = 0; i < per_writer; ++i) {
      for (const obs::QueryLogRecord& r : log.Recent()) {
        if (r.sql.empty()) failures.fetch_add(1);
      }
    }
  });
  threads.emplace_back([&] {  // flusher
    for (int i = 0; i < per_writer; ++i) log.Flush();
  });
  threads.emplace_back([&] {  // knob twiddler
    for (int i = 0; i < per_writer; ++i) {
      log.set_slow_micros(i % 2 == 0 ? 0 : 100);
      log.set_rotate_bytes(i % 2 == 0 ? 2048 : 4096);
    }
  });
  for (std::thread& t : threads) t.join();
  log.Flush();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(log.appended(), static_cast<uint64_t>(kWriters * per_writer));

  size_t lines = 0;
  for (const std::string& file : {dir + "/q.jsonl", dir + "/q.jsonl.1"}) {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      ++lines;
      EXPECT_TRUE(testing_util::IsValidJson(line)) << file << ": " << line;
    }
  }
  EXPECT_GT(lines, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyStressTest, CatalogScansRaceLiveQueries) {
  // sys.* scans materialize from the same registries the query threads
  // are mutating (metrics, traces, the global query log ring). Every
  // scan must succeed on a consistent snapshot while the registries
  // churn underneath.
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig nc3;
  nc3.min_support = 3;
  ASSERT_OK(system->Induce(nc3));
  exec::SetGlobalThreadCount(4);

  std::atomic<int> failures{0};
  auto note_failure = [&failures](const std::string& what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  const std::vector<std::string> scans = {
      "SELECT * FROM sys.metrics",
      "SELECT seq, sql, ok FROM sys.query_log",
      "SELECT trace_id, root FROM sys.traces",
      "SELECT name, value FROM sys.metrics WHERE name LIKE 'query.%'",
  };
  std::vector<std::thread> threads;
  for (unsigned seed = 1; seed <= 2; ++seed) {
    threads.emplace_back([&, seed] {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<size_t> pick(0, StressQueries().size() - 1);
      for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
        const std::string& sql = StressQueries()[pick(rng)];
        auto result = system->Query(sql);
        if (!result.ok()) {
          note_failure(sql + " -> " + result.status().ToString());
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
      const std::string& sql = scans[i % scans.size()];
      auto result = system->Query(sql);
      if (!result.ok()) {
        note_failure("catalog scan failed under load: " + sql + " -> " +
                     result.status().ToString());
      }
    }
  });
  for (std::thread& t : threads) t.join();
  exec::SetGlobalThreadCount(1);
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyStressTest, ConcurrentReinductionConverges) {
  // Two threads re-inducing with the same config while two more read
  // AllRules(): the final state equals a clean single-threaded run.
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig nc3;
  nc3.min_support = 3;
  ASSERT_OK(system->Induce(nc3));
  const std::string canonical =
      system->dictionary().induced_rules().ToString();
  exec::SetGlobalThreadCount(2);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        if (!system->Induce(nc3).ok()) failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        RuleSet all = system->dictionary().AllRules();
        if (all.empty()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  exec::SetGlobalThreadCount(1);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(system->dictionary().induced_rules().ToString(), canonical);
}

TEST(ConcurrencyStressTest, SemanticRewritesUnderReinductionStorm) {
  // The rewrite pass (DESIGN.md §12) races re-induction and an
  // epoch-bump storm with sqo on. GetMutable bumps the database epoch
  // without editing rows, so the data never changes: whether any given
  // query rewrites (fresh epochs), replays a cached rewrite, or hits
  // the stale gate and declines, the extensional bytes must equal the
  // serial sqo-off baseline. This is exactly the window where a stale
  // rewrite would show up as drift.
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  InductionConfig nc3;
  nc3.min_support = 3;
  ASSERT_OK(system->Induce(nc3));
  exec::SetGlobalThreadCount(4);

  std::map<std::string, std::string> expected;
  for (const std::string& sql : StressQueries()) {
    auto result = system->Query(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
    expected[sql] = result->extensional.ToTable();
  }
  system->processor().set_sqo_mode(SqoMode::kOn);

  std::atomic<int> failures{0};
  std::atomic<uint64_t> rewritten{0};
  auto note_failure = [&failures](const std::string& what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  std::vector<std::thread> threads;
  for (unsigned seed = 5; seed <= 7; ++seed) {
    threads.emplace_back([&, seed] {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<size_t> pick(0, StressQueries().size() - 1);
      for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
        const std::string& sql = StressQueries()[pick(rng)];
        auto result = system->Query(sql);
        if (!result.ok()) {
          note_failure("sqo query failed: " + sql + " -> " +
                       result.status().ToString());
          continue;
        }
        rewritten.fetch_add(result->rewrites.size());
        if (result->extensional.ToTable() != expected[sql]) {
          note_failure("semantic rewrite changed an answer under load: " +
                       sql);
        }
      }
    });
  }
  // Re-induction thread: every install moves the rule epoch and refreshes
  // the induced-from db epoch, re-arming the pass after each storm bump.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
      Status s = system->Induce(nc3);
      if (!s.ok()) note_failure("induce -> " + s.ToString());
    }
  });
  // Epoch storm: GetMutable invalidates indexes and bumps the database
  // epoch (no row edits), repeatedly tripping the stale gate until the
  // next re-induction lands.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations && failures.load() == 0; ++i) {
      auto mutated = system->database().GetMutable("SUBMARINE");
      if (!mutated.ok()) {
        note_failure("GetMutable -> " + mutated.status().ToString());
      }
    }
  });
  for (std::thread& t : threads) t.join();
  exec::SetGlobalThreadCount(1);
  EXPECT_EQ(failures.load(), 0);

  // Settle: one more induction realigns epochs, after which the pass
  // must fire again and still answer identically.
  ASSERT_OK(system->Induce(nc3));
  system->processor().cache().Clear();
  const std::string probe =
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'";
  auto settled = system->Query(probe);
  ASSERT_TRUE(settled.ok());
  EXPECT_FALSE(settled->rewrites.empty())
      << "pass stayed disarmed after epochs realigned";
  EXPECT_EQ(settled->extensional.ToTable(), expected[probe]);
  system->processor().set_sqo_mode(SqoMode::kOff);
}

}  // namespace
}  // namespace iqs
