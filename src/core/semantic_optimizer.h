#ifndef IQS_CORE_SEMANTIC_OPTIMIZER_H_
#define IQS_CORE_SEMANTIC_OPTIMIZER_H_

#include <string>
#include <vector>

#include "dictionary/data_dictionary.h"
#include "inference/engine.h"
#include "relational/database.h"
#include "sql/binder.h"
#include "sql/sqo_rewrite.h"

namespace iqs {

// Semantic query optimization with induced rules — the companion use of
// the same knowledge base the paper cites in §1 ("integrity constraints
// were used to improve query processing performance [KING81, HAMM80]")
// and develops in the authors' CHU90. Where intensional answering runs
// rules FORWARD over a query's conditions, the optimizer runs them in
// CONVERSE: a condition `Y = y` implies `X ∈ (union of the ranges of
// y's rule family)` — but only when the family is *complete* (no pruned
// run, no inconsistent value; Rule::family_complete). The implied
// restriction can then drive an index scan on X instead of a full scan.
//
// Incomplete families still yield implied conditions, flagged
// `complete = false`: using them trades completeness for speed (the
// Example-2 situation — class 1301 would be missed).

// One derived restriction: attribute ∈ union of intervals.
struct ImpliedCondition {
  std::string attribute;            // the family's X attribute
  std::vector<Interval> intervals;  // one per family rule, ascending
  std::vector<int> rule_ids;        // provenance
  bool complete = true;

  bool Admits(const Value& v) const;
  std::string ToString() const;
};

class SemanticOptimizer {
 public:
  // `dictionary` must outlive the optimizer.
  explicit SemanticOptimizer(const DataDictionary* dictionary)
      : dictionary_(dictionary) {}

  // Derives the restrictions implied by the query's point conditions
  // through the given rules. For a condition `A = v`, every rule scheme
  // whose consequent is `A = v` (base-name match) contributes the union
  // of its matching rules' LHS intervals over the scheme's X attribute.
  std::vector<ImpliedCondition> Derive(const QueryDescription& query,
                                       const RuleSet& rules) const;

  // Same, using the dictionary's induced rules.
  std::vector<ImpliedCondition> Derive(const QueryDescription& query) const;

  // The rewrite pass (DESIGN.md §12), run by the query processor between
  // parse and execution. Applies, in converse-restriction order:
  //  (a) predicate elimination — a WHERE conjunct implied by a point
  //      conjunct plus a complete rule family is dropped;
  //  (b) empty-result detection — when a family's implied interval hull
  //      and another conjunct over the same attribute are disjoint
  //      (InferenceEngine::DetectContradiction), the answer is provably
  //      empty and the scan is skipped;
  //  (c) scan narrowing — the implied hull is appended as a BETWEEN
  //      conjunct, which the executor's index fast path can drive;
  //  (d) intensional-only answering (mode == kIntensional) — when every
  //      surviving conjunct is characterized by a complete family, the
  //      scan is skipped and the answer comes from the rules alone.
  //
  // Soundness guardrails: only complete families are used (converse
  // implication); the pass declines entirely when a top-level conjunct
  // is one it does not analyze (BoundConjunct::Kind::kOther), and every
  // other conjunct is total, since the binder type-checked it;
  // value-restricting rewrites require the implied column to be
  // null-free (nulls do not participate in induction); and a conjunct
  // whose implication was used is pinned against elimination (mutual
  // implications cannot drop both sides).
  // An unchanged statement comes back as a RewritePlan with no steps.
  // The pass reads `query`'s binding — the FROM entries, column types
  // and typed constants the executor uses — and never resolves a name
  // itself.
  Result<RewritePlan> Rewrite(const BoundQuery& query, const RuleSet& rules,
                              SqoMode mode,
                              const InferenceEngine& engine) const;

  // Binds `stmt` against `db` first. A statement that does not bind
  // comes back unchanged; executing it reports the error.
  Result<RewritePlan> Rewrite(const SelectStatement& stmt,
                              const RuleSet& rules, SqoMode mode,
                              const Database& db,
                              const InferenceEngine& engine) const;

 private:
  const DataDictionary* dictionary_;
};

}  // namespace iqs

#endif  // IQS_CORE_SEMANTIC_OPTIMIZER_H_
