#ifndef IQS_CACHE_QUERY_CACHE_H_
#define IQS_CACHE_QUERY_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/sharded_cache.h"
#include "fault/degrade.h"
#include "inference/engine.h"
#include "sql/sql_ast.h"
#include "sql/sqo_rewrite.h"

namespace iqs {
namespace cache {

// The versioned caching layer in front of the intensional pipeline
// (DESIGN.md §9). Two caches, both invalidated by versioning rather than
// time:
//
//  * the plan cache maps normalized query text to the parsed statement,
//    short-circuiting the SQL parser on repeat traffic;
//  * the intensional-answer cache maps
//        (canonical predicate, inference mode, rule-base epoch, db epoch)
//    to the inferred description, short-circuiting the whole inference
//    match — the expensive half of serving an intensional answer.
//
// Epoch counters are bumped by DataDictionary on every rule-base install
// (re-induction, rule import, active-domain recompute) and by Database on
// every data mutation, so a stale entry's key can never be constructed
// again: entries are never *served* stale, only *aged out* by LRU.

// A memoized inference outcome: the answer plus the degradation events
// the inference stage absorbed while producing it (replayed on a hit so
// a cached answer renders byte-identically to its original). The answer
// shares its statements with the query that inserted it and with every
// hit; none of them copies them.
struct CachedAnswer {
  IntensionalAnswer answer;
  std::vector<fault::DegradationEvent> degradations;
};

// A memoized parse plus (optionally) the semantic rewrite computed from
// it. The statement alone is version-independent — parsing depends only
// on the text. The rewrite is data- and rule-dependent, so it carries the
// sqo mode and the rule/db epochs it was derived under; the processor
// replays it only when all three still match, otherwise it re-optimizes
// and refreshes the entry. A stale rewrite is therefore never replayed —
// the statement half of the hit still saves the parse.
struct CachedPlan {
  SelectStatement statement;
  std::optional<RewritePlan> rewrite;
  SqoMode rewrite_mode = SqoMode::kOff;
  uint64_t rewrite_rule_epoch = 0;
  uint64_t rewrite_db_epoch = 0;
};

// Canonical form of `sql` for plan-cache keying: whitespace runs outside
// single-quoted literals collapse to one space, keywords fold to lower
// case outside literals, leading/trailing space is trimmed. Semantically
// identical spellings ("SELECT  X" / "select x\n") share one plan.
std::string NormalizeSql(const std::string& sql);

// Cache key of an intensional answer: the canonical predicate (the
// object types, each condition's attribute, bounds, openness and
// type-tagged values, all length-delimited, plus the inference mode)
// versioned by the rule-base and database epochs it was derived under.
// Built from typed values, not a rendering: a string constant can never
// spell another query's conditions.
std::string AnswerKey(const QueryDescription& description, InferenceMode mode,
                      uint64_t rule_epoch, uint64_t database_epoch);

// One processor's cache pair plus its knobs. Thread-safe: the shards
// carry their own mutexes and the knobs are atomics, so concurrent
// queries, invalidation storms, and shell toggles need no external lock.
class QueryCache {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  QueryCache()
      : plans_(kDefaultCapacity), answers_(kDefaultCapacity) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Applies to both caches.
  void set_capacity(size_t capacity) {
    plans_.set_capacity(capacity);
    answers_.set_capacity(capacity);
  }
  size_t capacity() const { return plans_.capacity(); }

  void Clear() {
    plans_.Clear();
    answers_.Clear();
  }

  ShardedLruCache<CachedPlan>& plans() { return plans_; }
  ShardedLruCache<CachedAnswer>& answers() { return answers_; }
  const ShardedLruCache<CachedPlan>& plans() const { return plans_; }
  const ShardedLruCache<CachedAnswer>& answers() const { return answers_; }

  // Aligned stats block for the shell's `cache` command.
  std::string StatsText() const;

 private:
  std::atomic<bool> enabled_{true};
  ShardedLruCache<CachedPlan> plans_;
  ShardedLruCache<CachedAnswer> answers_;
};

}  // namespace cache
}  // namespace iqs

#endif  // IQS_CACHE_QUERY_CACHE_H_
