#ifndef IQS_OBS_QUERY_STATS_H_
#define IQS_OBS_QUERY_STATS_H_

#include <cstdint>
#include <string>

namespace iqs {

// Per-query cost breakdown, filled by IntensionalQueryProcessor (and
// format_micros by IqsSystem::Explain). Carried on QueryResult so tests
// and benches can assert on where time went without parsing traces.
// Stage times are microseconds, rounded up — any stage that ran at all
// reports a nonzero duration.
struct QueryStats {
  int64_t parse_micros = 0;
  int64_t execute_micros = 0;
  int64_t describe_micros = 0;
  int64_t infer_micros = 0;
  int64_t format_micros = 0;   // answer formatting (Explain)
  int64_t total_micros = 0;    // parse + execute + describe + infer

  // Traditional query processor.
  uint64_t rows_scanned = 0;   // base rows materialized across FROM tables
  uint64_t rows_returned = 0;  // extensional answer size
  uint64_t index_prefiltered_tables = 0;

  // Columnar scan (DESIGN.md §14): FROM entries read from the
  // column-major snapshot, with zone-map block accounting. rows_scanned
  // still reports the full relation size for such entries; skipping
  // shows up as columnar_blocks_pruned.
  uint64_t columnar_tables = 0;
  uint64_t columnar_blocks_total = 0;
  uint64_t columnar_blocks_pruned = 0;

  // Inference processor.
  uint64_t forward_facts = 0;         // facts in the forward statement
  uint64_t backward_statements = 0;   // contained-in statements
  uint64_t rules_fired = 0;           // distinct rules cited by the answer

  // Faults absorbed while serving this query (see fault/degrade.h); the
  // events themselves ride on QueryResult::degradations.
  uint64_t degraded_events = 0;

  // Versioned-cache outcome for this query (cache/query_cache.h): did
  // the parsed plan / the intensional answer come from the cache?
  bool plan_cache_hit = false;
  bool answer_cache_hit = false;

  // Semantic rewrite pass (core/semantic_optimizer.h): how many WHERE
  // conjuncts the induced rules eliminated, how many implied BETWEEN
  // restrictions narrowed the scan, and whether the answer was proven
  // empty / served intensionally with the scan skipped. All zero/false
  // when sqo is off or the pass declined.
  uint64_t sqo_eliminated = 0;
  uint64_t sqo_narrowed = 0;
  bool sqo_empty_proven = false;
  bool sqo_intensional_only = false;

  // Resource governance (DESIGN.md §15): the deadline this query ran
  // under (-1 = none), the peak estimated bytes charged against its
  // budget (in KB), and — when governance cancelled a stage — the typed
  // status code name ("DeadlineExceeded", "Cancelled",
  // "ResourceExhausted"; empty on an ungoverned or clean run). A
  // nonempty gov_cancelled on a successful result means the inference
  // half was cancelled and the answer degraded to extensional-only.
  int64_t gov_deadline_ms = -1;
  uint64_t gov_mem_peak_kb = 0;
  std::string gov_cancelled;

  // Cost and value of the backward-coverage check (paper Example 2): how
  // completely the best exact backward statement covers the extensional
  // answer, and what computing that cost. coverage stays -1 when no
  // backward statement was checkable.
  double coverage = -1.0;
  int64_t coverage_micros = 0;

  std::string ToString() const;
  std::string ToJson() const;
};

}  // namespace iqs

#endif  // IQS_OBS_QUERY_STATS_H_
