// The versioned plan/answer cache (DESIGN.md §9): LRU mechanics of the
// sharded store, SQL normalization for plan keys, and the epoch
// invalidation contract — re-induction and data mutation must retire
// cached intensional answers, a disabled cache must be a pure
// passthrough, and a warm hit must render byte-identically to a cold
// run. Labeled "cache" in ctest (`ctest -L cache` / check-cache).

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/query_cache.h"
#include "cache/sharded_cache.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using cache::CacheCounters;
using cache::NormalizeSql;
using cache::QueryCache;
using cache::ShardedLruCache;

std::shared_ptr<const int> Boxed(int v) {
  return std::make_shared<const int>(v);
}

// --- sharded LRU mechanics -------------------------------------------------

TEST(ShardedLruCacheTest, InsertLookupAndCounters) {
  ShardedLruCache<int> cache(/*capacity=*/8, /*shard_count=*/2);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", Boxed(1));
  cache.Insert("b", Boxed(2));
  auto a = cache.Lookup("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 1);
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.inserts, 2u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DOUBLE_EQ(c.hit_ratio(), 0.5);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsed) {
  // One shard makes the recency order deterministic.
  ShardedLruCache<int> cache(/*capacity=*/2, /*shard_count=*/1);
  cache.Insert("a", Boxed(1));
  cache.Insert("b", Boxed(2));
  cache.Insert("c", Boxed(3));  // evicts "a", the coldest
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCacheTest, LookupRefreshesRecency) {
  ShardedLruCache<int> cache(/*capacity=*/2, /*shard_count=*/1);
  cache.Insert("a", Boxed(1));
  cache.Insert("b", Boxed(2));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // "b" is now the coldest
  cache.Insert("c", Boxed(3));
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
}

TEST(ShardedLruCacheTest, InsertRefreshesExistingKey) {
  ShardedLruCache<int> cache(/*capacity=*/2, /*shard_count=*/1);
  cache.Insert("a", Boxed(1));
  cache.Insert("b", Boxed(2));
  cache.Insert("a", Boxed(10));  // refresh, not a new entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().inserts, 2u);  // refresh is not an insert
  auto a = cache.Lookup("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 10);
  cache.Insert("c", Boxed(3));  // "b" is the coldest after the refresh
  EXPECT_EQ(cache.Lookup("b"), nullptr);
}

TEST(ShardedLruCacheTest, EvictedValueStaysAliveForHolders) {
  ShardedLruCache<int> cache(/*capacity=*/1, /*shard_count=*/1);
  cache.Insert("a", Boxed(1));
  auto held = cache.Lookup("a");
  ASSERT_NE(held, nullptr);
  cache.Insert("b", Boxed(2));  // evicts "a" while `held` is outstanding
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*held, 1);  // the shared_ptr keeps the value alive
}

TEST(ShardedLruCacheTest, ClearAndShrinkCapacity) {
  ShardedLruCache<int> cache(/*capacity=*/16, /*shard_count=*/1);
  for (int i = 0; i < 10; ++i) cache.Insert("k" + std::to_string(i), Boxed(i));
  EXPECT_EQ(cache.size(), 10u);
  cache.set_capacity(4);
  EXPECT_EQ(cache.capacity(), 4u);
  cache.Insert("fresh", Boxed(99));  // shrink applies on the next insert
  EXPECT_LE(cache.size(), 4u);
  EXPECT_NE(cache.Lookup("fresh"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("fresh"), nullptr);
}

// A value whose destructor looks its cache up from another thread and
// waits at most 2 s for that lookup. The lookup cannot finish while the
// destroying thread still holds the shard's mutex. Its future is parked
// in `pending` rather than joined, so neither outcome can deadlock.
class LookupOnRelease {
 public:
  LookupOnRelease(ShardedLruCache<LookupOnRelease>* cache,
                  std::vector<std::future<void>>* pending,
                  int* finished_in_time)
      : cache_(cache), pending_(pending), finished_in_time_(finished_in_time) {}
  ~LookupOnRelease() {
    std::future<void> lookup = std::async(
        std::launch::async, [cache = cache_] { cache->Lookup("other"); });
    if (lookup.wait_for(std::chrono::seconds(2)) ==
        std::future_status::ready) {
      ++*finished_in_time_;
    }
    pending_->push_back(std::move(lookup));
  }

 private:
  ShardedLruCache<LookupOnRelease>* cache_;
  std::vector<std::future<void>>* pending_;
  int* finished_in_time_;
};

TEST(ShardedLruCacheTest, ReleasesValuesOutsideTheShardLock) {
  ShardedLruCache<LookupOnRelease> cache(/*capacity=*/1, /*shard_count=*/1);
  std::vector<std::future<void>> pending;
  int finished_in_time = 0;
  auto value = [&] {
    return std::make_shared<const LookupOnRelease>(&cache, &pending,
                                                   &finished_in_time);
  };
  cache.Insert("a", value());
  cache.Insert("a", value());  // refresh: releases the first value
  EXPECT_EQ(finished_in_time, 1);
  cache.Insert("b", value());  // evicts "a"
  EXPECT_EQ(finished_in_time, 2);
  cache.Clear();  // releases "b"
  EXPECT_EQ(finished_in_time, 3);
  EXPECT_EQ(pending.size(), 3u);
}

TEST(ShardedLruCacheTest, CapacityNeverBelowOnePerShard) {
  ShardedLruCache<int> cache(/*capacity=*/0, /*shard_count=*/4);
  cache.Insert("a", Boxed(1));
  EXPECT_NE(cache.Lookup("a"), nullptr);  // each shard keeps >= 1 entry
}

// --- SQL normalization -----------------------------------------------------

TEST(NormalizeSqlTest, CollapsesWhitespaceAndFoldsCase) {
  EXPECT_EQ(NormalizeSql("SELECT  Id\n FROM\tSUBMARINE"),
            "select id from submarine");
  EXPECT_EQ(NormalizeSql("select id from submarine"),
            NormalizeSql("  SELECT   ID   FROM   SUBMARINE  "));
}

TEST(NormalizeSqlTest, PreservesQuotedLiterals) {
  // Case and spacing inside single quotes are semantic.
  EXPECT_EQ(NormalizeSql("SELECT Id FROM S WHERE Class = 'A  B'"),
            "select id from s where class = 'A  B'");
  EXPECT_NE(NormalizeSql("WHERE Class = 'abc'"),
            NormalizeSql("WHERE Class = 'ABC'"));
  EXPECT_EQ(NormalizeSql("WHERE Class='0204'"), "where class='0204'");
}

TEST(NormalizeSqlTest, TrimsLeadingAndTrailingSpace) {
  EXPECT_EQ(NormalizeSql("   SELECT 1   "), "select 1");
  EXPECT_EQ(NormalizeSql(""), "");
  EXPECT_EQ(NormalizeSql("   "), "");
}

// --- answer keys -------------------------------------------------------------

QueryDescription Describing(std::vector<Clause> conditions) {
  QueryDescription d;
  d.object_types = {"CLASS"};
  d.conditions = std::move(conditions);
  return d;
}

TEST(AnswerKeyTest, ValuesAreTypeTagged) {
  // '8000' and 8000 print alike; as keys they must not meet.
  auto key = [](Value v) {
    return cache::AnswerKey(
        Describing({Clause("CLASS.Displacement",
                           Interval::AtLeast(std::move(v), true))}),
        InferenceMode::kCombined, 1, 1);
  };
  EXPECT_NE(key(Value::String("8000")), key(Value::Int(8000)));
  EXPECT_EQ(key(Value::Int(8000)), key(Value::Int(8000)));
}

TEST(AnswerKeyTest, StringConstantsCannotSpellOtherConditions) {
  QueryDescription one = Describing({Clause::Equals(
      "CLASS.Type", Value::String("SSN and CLASS.Displacement > 3000"))});
  QueryDescription two =
      Describing({Clause::Equals("CLASS.Type", Value::String("SSN")),
                  Clause("CLASS.Displacement",
                         Interval::AtLeast(Value::Int(3000), true))});
  ASSERT_EQ(one.ToString(), two.ToString());  // the rendering collides
  EXPECT_NE(cache::AnswerKey(one, InferenceMode::kCombined, 1, 1),
            cache::AnswerKey(two, InferenceMode::kCombined, 1, 1));
}

// --- the versioned cache against a live system -----------------------------

constexpr char kRuleQuery[] =
    "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'";

class QueryCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = testing_util::ShipSystemOrFail();
    ASSERT_TRUE(system_);
    InductionConfig config;
    config.min_support = 3;
    ASSERT_OK(system_->Induce(config));
  }

  QueryCache& cache() { return system_->processor().cache(); }

  std::unique_ptr<IqsSystem> system_;
};

TEST_F(QueryCacheTest, ColdMissThenWarmHitByteIdentical) {
  ASSERT_OK_AND_ASSIGN(QueryResult cold, system_->Query(kRuleQuery));
  std::string cold_rendered = system_->Explain(cold);
  CacheCounters after_cold = cache().answers().counters();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_EQ(after_cold.misses, 1u);
  EXPECT_EQ(after_cold.inserts, 1u);

  ASSERT_OK_AND_ASSIGN(QueryResult warm, system_->Query(kRuleQuery));
  CacheCounters after_warm = cache().answers().counters();
  EXPECT_EQ(after_warm.hits, 1u);
  EXPECT_EQ(after_warm.misses, 1u);
  EXPECT_EQ(cache().plans().counters().hits, 1u);
  EXPECT_EQ(warm.extensional.ToTable(), cold.extensional.ToTable());
  EXPECT_EQ(system_->Explain(warm), cold_rendered);
  EXPECT_FALSE(warm.degraded());
}

TEST_F(QueryCacheTest, MissAndHitsShareOneAnswerBody) {
  ASSERT_OK_AND_ASSIGN(QueryResult miss, system_->Query(kRuleQuery));
  ASSERT_OK_AND_ASSIGN(QueryResult hit, system_->Query(kRuleQuery));
  ASSERT_OK_AND_ASSIGN(QueryResult again, system_->Query(kRuleQuery));
  EXPECT_EQ(cache().answers().counters().hits, 2u);
  ASSERT_FALSE(miss.intensional.empty());
  const IntensionalStatement* body = miss.intensional.statements().data();
  EXPECT_EQ(hit.intensional.statements().data(), body);
  EXPECT_EQ(again.intensional.statements().data(), body);
  QueryResult copy = hit;
  EXPECT_EQ(copy.intensional.statements().data(), body);
  EXPECT_EQ(system_->Explain(again), system_->Explain(miss));
}

TEST_F(QueryCacheTest, EquivalentSpellingsShareOnePlan) {
  ASSERT_OK_AND_ASSIGN(QueryResult first, system_->Query(kRuleQuery));
  // Same statement, different whitespace and keyword/identifier case.
  ASSERT_OK_AND_ASSIGN(
      QueryResult second,
      system_->Query("select  ID from SUBMARINE\n"
                     "WHERE submarine.class = '0204'"));
  EXPECT_EQ(cache().plans().counters().hits, 1u);
  EXPECT_EQ(cache().plans().counters().inserts, 1u);
  // The description is identical, so the answer cache hits too.
  EXPECT_EQ(cache().answers().counters().hits, 1u);
  EXPECT_EQ(second.extensional.ToTable(), first.extensional.ToTable());
  EXPECT_EQ(system_->Explain(second), system_->Explain(first));
}

TEST_F(QueryCacheTest, LiteralCaseIsNotNormalizedAway) {
  ASSERT_OK(system_->Query(kRuleQuery).status());
  // A different literal must not reuse the cached plan or answer.
  ASSERT_OK(
      system_
          ->Query("SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0101'")
          .status());
  EXPECT_EQ(cache().plans().counters().hits, 0u);
  EXPECT_EQ(cache().plans().counters().inserts, 2u);
  EXPECT_EQ(cache().answers().counters().hits, 0u);
}

TEST_F(QueryCacheTest, ReinductionInvalidatesAnswers) {
  ASSERT_OK(system_->Query(kRuleQuery).status());
  uint64_t epoch_before = system_->dictionary().rule_epoch();

  InductionConfig config;
  config.min_support = 4;
  ASSERT_OK(system_->Induce(config));
  EXPECT_GT(system_->dictionary().rule_epoch(), epoch_before);

  // Same SQL, new rule-base epoch: the stale entry is unreachable.
  ASSERT_OK_AND_ASSIGN(QueryResult fresh, system_->Query(kRuleQuery));
  CacheCounters c = cache().answers().counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.inserts, 2u);
  // The plan cache is text-keyed and survives the rule-base swap.
  EXPECT_EQ(cache().plans().counters().hits, 1u);
  EXPECT_FALSE(fresh.degraded());
}

TEST_F(QueryCacheTest, DataMutationInvalidatesAnswers) {
  ASSERT_OK(system_->Query(kRuleQuery).status());
  uint64_t epoch_before = system_->database().epoch();

  // Any mutable access to a relation retires the database epoch.
  ASSERT_OK(system_->database().GetMutable("SUBMARINE").status());
  EXPECT_GT(system_->database().epoch(), epoch_before);

  ASSERT_OK(system_->Query(kRuleQuery).status());
  CacheCounters c = cache().answers().counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 2u);
}

TEST_F(QueryCacheTest, DisabledCacheIsAPurePassthrough) {
  cache().set_enabled(false);
  ASSERT_OK_AND_ASSIGN(QueryResult first, system_->Query(kRuleQuery));
  ASSERT_OK_AND_ASSIGN(QueryResult second, system_->Query(kRuleQuery));
  EXPECT_EQ(cache().plans().size() + cache().answers().size(), 0u);
  CacheCounters plans = cache().plans().counters();
  CacheCounters answers = cache().answers().counters();
  EXPECT_EQ(plans.hits + plans.misses + plans.inserts, 0u);
  EXPECT_EQ(answers.hits + answers.misses + answers.inserts, 0u);
  EXPECT_EQ(second.extensional.ToTable(), first.extensional.ToTable());
  EXPECT_EQ(system_->Explain(second), system_->Explain(first));
}

TEST_F(QueryCacheTest, CapacityEvictionUnderManyDistinctQueries) {
  cache().set_capacity(8);  // 8 shards -> one entry per shard
  const std::vector<std::string> classes = {"0101", "0204", "0301", "0402",
                                            "0501", "0602", "0703", "0801",
                                            "0902", "1001", "1102", "1201"};
  for (const std::string& c : classes) {
    ASSERT_OK(system_
                  ->Query("SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '" +
                          c + "'")
                  .status());
  }
  EXPECT_LE(cache().plans().size(), 8u);
  EXPECT_GT(cache().plans().counters().evictions, 0u);
}

TEST_F(QueryCacheTest, ExplicitRuleSetPathSkipsTheAnswerCache) {
  // The baseline path (ProcessWith) has no epoch to key on: plans are
  // shared, answers are not.
  RuleSet rules = system_->dictionary().AllRules();
  ASSERT_OK(system_->processor()
                .ProcessWith(kRuleQuery, InferenceMode::kCombined, rules)
                .status());
  CacheCounters answers = cache().answers().counters();
  EXPECT_EQ(answers.hits + answers.misses + answers.inserts, 0u);
  EXPECT_EQ(cache().plans().counters().inserts, 1u);
}

TEST_F(QueryCacheTest, StatsTextReportsStateAndCounts) {
  ASSERT_OK(system_->Query(kRuleQuery).status());
  std::string stats = cache().StatsText();
  EXPECT_NE(stats.find("cache: on"), std::string::npos) << stats;
  EXPECT_NE(stats.find("plans"), std::string::npos) << stats;
  EXPECT_NE(stats.find("answers"), std::string::npos) << stats;
  cache().set_enabled(false);
  EXPECT_NE(cache().StatsText().find("cache: off"), std::string::npos);
}

TEST_F(QueryCacheTest, EpochsAreMonotonicAcrossMutationKinds) {
  Database& db = system_->database();
  uint64_t e0 = db.epoch();
  ASSERT_OK(db.CreateRelation("SCRATCH", Schema()).status());
  uint64_t e1 = db.epoch();
  EXPECT_GT(e1, e0);
  ASSERT_OK(db.GetMutable("SCRATCH").status());
  uint64_t e2 = db.epoch();
  EXPECT_GT(e2, e1);
  ASSERT_OK(db.Drop("SCRATCH"));
  EXPECT_GT(db.epoch(), e2);
}

}  // namespace
}  // namespace iqs
