#ifndef IQS_INDUCTION_RULE_INDUCTION_H_
#define IQS_INDUCTION_RULE_INDUCTION_H_

#include <string>
#include <vector>

#include "induction/induction_config.h"
#include "relational/column_store.h"
#include "relational/relation.h"
#include "rules/rule.h"

namespace iqs {

// The Rule Induction Algorithm of paper §5.2.1, inducing the rule scheme
// X --> Y over one relation (which may be a joined view for inter-object
// schemes):
//
//   1. Retrieve the distinct (X, Y) value pairs, sorted
//      (`retrieve into S unique (r.Y, r.X) sort by r.Y` in QUEL).
//   2. Remove inconsistent pairs: X values mapped to more than one Y.
//   3. Construct rules: for each maximal run of consecutive X values with
//      the same Y value y, emit `if x1 <= X <= x2 then Y = y` (reducing to
//      `if X = x then Y = y` for single-value runs). Consecutiveness is
//      governed by config.run_policy.
//   4. Prune rules whose support (number of relation instances satisfying
//      the rule) is below config.min_support.
//
// `x_attr`/`y_attr` name columns of `relation`; the produced clauses use
// those names verbatim (role-qualified names like "x.Class" pass through).
// Rules are returned in ascending X order with scheme "X->Y" and
// source_relation = relation.name(); ids are left 0 for the caller's
// RuleSet to assign.
Result<std::vector<Rule>> InduceScheme(const Relation& relation,
                                       const std::string& x_attr,
                                       const std::string& y_attr,
                                       const InductionConfig& config);

// Diagnostic counters for one InduceScheme run, used by the ablation
// benches.
struct InductionStats {
  size_t distinct_pairs = 0;       // |S| after step 1
  size_t inconsistent_values = 0;  // distinct X values removed in step 2
  size_t runs = 0;                 // rules before pruning
  size_t pruned = 0;               // rules dropped in step 4
};

// Transposes `relation` and runs the columnar implementation.
Result<std::vector<Rule>> InduceSchemeWithStats(const Relation& relation,
                                                const std::string& x_attr,
                                                const std::string& y_attr,
                                                const InductionConfig& config,
                                                InductionStats* stats);

// The row-at-a-time reference implementation. No production path runs
// it: the differential tests and the scaling bench hold the columnar
// implementation to it.
Result<std::vector<Rule>> InduceSchemeRowsWithStats(
    const Relation& relation, const std::string& x_attr,
    const std::string& y_attr, const InductionConfig& config,
    InductionStats* stats);

// The columnar implementation (DESIGN.md §14) over a prebuilt snapshot:
// filter both columns to non-null rows, sort ids by (X, Y, row index),
// segment into X groups / Y subsegments. The row-index tie-break pins
// every representative value to the lowest-row-index spelling among
// Compare-equal values — exactly the spelling the reference's
// first-insertion map/set semantics keep — so rules, stats, and error
// text are byte-identical to InduceSchemeRowsWithStats.
Result<std::vector<Rule>> InduceSchemeColumnarWithStats(
    const ColumnarRelation& relation, const std::string& x_attr,
    const std::string& y_attr, const InductionConfig& config,
    InductionStats* stats);

}  // namespace iqs

#endif  // IQS_INDUCTION_RULE_INDUCTION_H_
