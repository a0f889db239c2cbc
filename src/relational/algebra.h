#ifndef IQS_RELATIONAL_ALGEBRA_H_
#define IQS_RELATIONAL_ALGEBRA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column_store.h"
#include "relational/predicate.h"
#include "relational/relation.h"

namespace iqs {

// Batch (columnar) selection: conditions of the shape `column <op>
// constant` run as typed tight loops over the column arrays of a
// ColumnarRelation, with zone-map block pruning in front, and a residual
// row predicate runs over materialized survivors. The SQL executor reads
// every stored FROM entry through it, with conditions taken from the
// binder's conjuncts.

// One `column <op> constant` condition. The constant is null or
// comparable with the column's type (the binder coerces it), so a
// condition never raises.
struct ColumnCondition {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  Value constant;
};

struct ColumnarScanStats {
  size_t blocks_total = 0;
  size_t blocks_pruned = 0;  // skipped whole via zone-map min/max
};

// Filters `rel` by `conditions` AND `residual` (may be null), returning
// admitted row ids in base order. Parallel over blocks (a chunk per
// block with a residual, per 32 blocks without); the merge is
// block-ordered, so the output order is the serial scan's.
Result<std::vector<uint32_t>> ColumnarScan(
    const ColumnarRelation& rel,
    const std::vector<ColumnCondition>& conditions, const Predicate* residual,
    ColumnarScanStats* stats);

// The same selection over candidate rows `rows` of `rel` (ascending row
// ids, e.g. an index's admitted hull) rather than over its blocks: the
// survivors, in the candidates' order. Serial and unpruned.
Result<std::vector<uint32_t>> ColumnarFilter(
    const ColumnarRelation& rel,
    const std::vector<ColumnCondition>& conditions, const Predicate* residual,
    std::vector<uint32_t> rows);

}  // namespace iqs

#endif  // IQS_RELATIONAL_ALGEBRA_H_
