#ifndef IQS_CORE_QUERY_PROCESSOR_H_
#define IQS_CORE_QUERY_PROCESSOR_H_

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "cache/query_cache.h"
#include "core/semantic_optimizer.h"
#include "dictionary/data_dictionary.h"
#include "fault/degrade.h"
#include "inference/engine.h"
#include "obs/query_stats.h"
#include "relational/database.h"
#include "sql/sql_executor.h"
#include "sql/sql_parser.h"
#include "sql/sqo_rewrite.h"

namespace iqs {

// Everything the system knows about one processed query: the parsed
// statement, the extensional answer (from the traditional query
// processor), the description handed to the inference processor, the
// derived intensional answer, and the cost breakdown of producing it all.
struct QueryResult {
  SelectStatement statement;
  Relation extensional;
  QueryDescription description;
  IntensionalAnswer intensional;
  // Rule/db epochs the answer was derived under (read before any work,
  // together with the rule-base snapshot). Both stay 0 on unversioned
  // paths (explicit-rules baseline, degraded snapshot load). The network
  // layer surfaces them so clients can correlate answers with induction
  // and mutation traffic.
  uint64_t rule_epoch = 0;
  uint64_t db_epoch = 0;
  // Semantic rewrites applied before execution (sqo mode on): one step
  // per predicate elimination / scan narrowing / empty proof /
  // intensional-only answer, each naming the rules that justified it.
  // Empty when the pass is off or declined — `statement` is always the
  // query as parsed, never the rewritten form.
  std::vector<RewriteStep> rewrites;
  QueryStats stats;
  // Faults absorbed while producing this result (extensional-only
  // fallback, skipped rules, retries). Empty on a clean run; the
  // formatter renders each event as an answer annotation.
  std::vector<fault::DegradationEvent> degradations;

  bool degraded() const { return !degradations.empty(); }
};

// Per-call knobs for Process(). The defaults reproduce the plain
// Process(sql, mode) behavior; the network layer passes one of these per
// request so concurrent sessions with different `set` options never race
// on the processor-wide state.
struct QueryOptions {
  InferenceMode mode = InferenceMode::kCombined;
  // Semantic-rewrite mode for this call; nullopt uses the processor-wide
  // sqo_mode().
  std::optional<SqoMode> sqo;
  // false bypasses the plan + answer caches for this call only (lookups
  // and inserts); the uncached path serves the identical answer.
  bool use_cache = true;
  // Resource governance (DESIGN.md §15). A nonzero deadline or budget
  // (or a wire identity, which the cancel verb needs) makes Process run
  // the whole pipeline under an ExecContext: governance checkpoints trip
  // with typed errors, the query registers in GovernanceRegistry (so
  // sys.sessions shows it and cancel/watchdog can reach it), and peak
  // memory lands in QueryStats. All zero = ungoverned, the pre-existing
  // behavior.
  int64_t deadline_ms = 0;      // 0 = no deadline
  uint64_t max_memory_kb = 0;   // 0 = no budget
  uint64_t session_id = 0;      // 0 = not a wire request
  std::string request_id;       // wire identity for `cancel`
};

// The intensional query processing system (paper §5.1, Figure 6): a
// traditional query processor (SqlExecutor) paired with the inference
// processor (InferenceEngine) over the intelligent data dictionary.
class IntensionalQueryProcessor {
 public:
  // `db` and `dictionary` must outlive the processor.
  IntensionalQueryProcessor(const Database* db,
                            const DataDictionary* dictionary)
      : db_(db),
        dictionary_(dictionary),
        executor_(db),
        engine_(dictionary),
        optimizer_(dictionary) {}

  // Executes `sql` and derives the intensional answer with the requested
  // inference mode, using the dictionary's induced rules. Faults in the
  // intensional half degrade gracefully — the extensional answer is
  // always produced when the traditional pipeline can produce it, with
  // the dropped intensional work recorded in QueryResult::degradations.
  Result<QueryResult> Process(const std::string& sql,
                              InferenceMode mode = InferenceMode::kCombined)
      const;

  // Same, with explicit per-call options (inference mode, sqo override,
  // cache bypass). Process(sql, mode) forwards here.
  Result<QueryResult> Process(const std::string& sql,
                              const QueryOptions& options) const;

  // Same, against an explicit rule set (used by the integrity-constraint
  // baseline).
  Result<QueryResult> ProcessWith(const std::string& sql, InferenceMode mode,
                                  const RuleSet& rules) const;

  // Derives the inference-facing description of a bound query: each
  // top-level conjunct comparing a column with a constant (or BETWEEN)
  // becomes an interval clause over "<Relation>.<attr>" (aliases resolved
  // to relation names), with the constants the executor compares; join
  // conditions and non-conjunctive structure are omitted — they shape
  // the view, not the restriction.
  Result<QueryDescription> Describe(const BoundQuery& bound) const;
  // Binds `stmt` against the database first.
  Result<QueryDescription> Describe(const SelectStatement& stmt) const;

  // Fraction of extensional-answer rows satisfying every resolvable range
  // fact of `statement` — 1.0 for a sound forward statement; < 1.0
  // quantifies the incompleteness of a backward statement (the paper's
  // Example 2 discussion: class 1301 is an SSBN the backward answer
  // misses).
  Result<double> Coverage(const QueryResult& result,
                          const IntensionalStatement& statement) const;

  const SqlExecutor& executor() const { return executor_; }
  const InferenceEngine& engine() const { return engine_; }

  // The versioned plan/answer cache in front of the pipeline (DESIGN.md
  // §9). Mutable because caching is invisible to callers: a Process()
  // through a cache hit returns byte-identical results to a cold run.
  cache::QueryCache& cache() const { return cache_; }

  // Semantic-rewrite mode (DESIGN.md §12). kOff by default: every query
  // runs the traditional plan unchanged. kOn applies only
  // answer-preserving rewrites, so like the cache it is invisible in the
  // extensional answer (the differential harness holds it to that);
  // kIntensional additionally answers rule-subsumed queries from the
  // rules alone, with the extensional scan deliberately skipped.
  SqoMode sqo_mode() const {
    return sqo_mode_.load(std::memory_order_relaxed);
  }
  void set_sqo_mode(SqoMode mode) const {
    sqo_mode_.store(mode, std::memory_order_relaxed);
  }

 private:
  // Epochs a Process() call read *before* doing any work; answers are
  // cached under them, and only if they still hold at insert time.
  struct CacheEpochs {
    uint64_t rule_epoch = 0;
    uint64_t db_epoch = 0;
  };

  // The shared pipeline. `rules` may be null — the rule-base snapshot
  // failed — in which case inference is skipped entirely and the result
  // carries the pre-seeded degradation events in `pre`. `epochs` is null
  // on paths with no version to key answers on (explicit-rules baseline,
  // degraded snapshot), which disables the answer cache but not the plan
  // cache.
  Result<QueryResult> ProcessImpl(
      const std::string& sql, const QueryOptions& options,
      const RuleSet* rules, std::vector<fault::DegradationEvent> pre,
      const CacheEpochs* epochs) const;

  const Database* db_;
  const DataDictionary* dictionary_;
  SqlExecutor executor_;
  InferenceEngine engine_;
  SemanticOptimizer optimizer_;
  mutable cache::QueryCache cache_;
  mutable std::atomic<SqoMode> sqo_mode_{SqoMode::kOff};
};

}  // namespace iqs

#endif  // IQS_CORE_QUERY_PROCESSOR_H_
