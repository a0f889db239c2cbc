#ifndef IQS_RELATIONAL_ALGEBRA_H_
#define IQS_RELATIONAL_ALGEBRA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column_store.h"
#include "relational/predicate.h"
#include "relational/relation.h"

namespace iqs {

// Batch (columnar) selection: conjuncts of the shape `column <op>
// constant` run as typed tight loops over the column arrays of a
// ColumnarRelation, with zone-map block pruning in front, and everything
// else falls back to the row predicate over materialized survivors. The
// contract is byte-identity with the executor's serial row scan — same
// rows, same order, and the same first error.

// One extracted WHERE conjunct, oriented column-first. `constant_first`
// records that the source predicate had the literal on the left
// (`5 > x`): comparison *results* are mirror-symmetric, but TypeError
// text is not, so generic evaluation re-applies the original
// orientation.
struct ColumnCondition {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;  // column <op> constant
  Value constant;
  bool constant_first = false;
};

// Result of splitting a bound predicate for ColumnarScan: the maximal
// extractable *prefix* of AND-ed column-vs-constant compares in
// evaluation order, plus a residual predicate holding every remaining
// leaf (null when fully extracted). Only a prefix is sound: a conjunct
// may not be evaluated ahead of an earlier non-extractable leaf, or a
// row that leaf would have errored on could be rejected first instead.
// Columns demoted to kMixed storage are never extracted — the
// error-order argument in ColumnarScan needs single-typed columns.
struct ExtractedConjuncts {
  std::vector<ColumnCondition> conditions;
  PredicatePtr residual;
};
ExtractedConjuncts ExtractColumnConditions(const PredicatePtr& pred,
                                           const ColumnarRelation& rel);

struct ColumnarScanStats {
  size_t blocks_total = 0;
  size_t blocks_pruned = 0;  // skipped whole via zone-map min/max
};

// Filters `rel` by `conditions` (in order) AND `residual` (may be
// null), returning admitted row ids in base order. Parallel over
// blocks; merge is block-ordered, so output order and the first error
// reported match the serial row-at-a-time scan exactly.
Result<std::vector<uint32_t>> ColumnarScan(
    const ColumnarRelation& rel,
    const std::vector<ColumnCondition>& conditions, const Predicate* residual,
    ColumnarScanStats* stats);

}  // namespace iqs

#endif  // IQS_RELATIONAL_ALGEBRA_H_
