#include "relational/algebra.h"

#include "exec/exec_context.h"
#include "exec/parallel.h"

namespace iqs {

namespace {

// Type-level comparability between a typed column and a non-null
// constant; kMixed is conservatively incomparable (per-row types are
// unknown up front).
bool StorageComparableWith(Column::Storage s, ValueType t) {
  switch (s) {
    case Column::Storage::kInt:
    case Column::Storage::kReal:
      return t == ValueType::kInt || t == ValueType::kReal;
    case Column::Storage::kString:
      return t == ValueType::kString;
    case Column::Storage::kDate:
      return t == ValueType::kDate;
    case Column::Storage::kMixed:
      return false;
  }
  return false;
}

bool OpHolds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
    case CompareOp::kLike:
      break;  // never reaches the three-way path
  }
  return false;
}

// Can block `b` contribute no rows to `cond`?
bool BlockPrunable(const ColumnarRelation& rel, const ColumnCondition& cond,
                   size_t b) {
  const BlockStats& st = rel.stats(cond.column, b);
  if (st.non_null == 0) return true;  // all-null: every compare is false
  if (cond.constant.is_null()) return true;
  if (cond.op == CompareOp::kLike) return false;
  const Value& c = cond.constant;
  switch (cond.op) {
    case CompareOp::kEq:
      return c.Compare(st.min) < 0 || c.Compare(st.max) > 0;
    case CompareOp::kNe:
      return st.min.Compare(c) == 0 && st.max.Compare(c) == 0;
    case CompareOp::kLt:
      return st.min.Compare(c) >= 0;
    case CompareOp::kLe:
      return st.min.Compare(c) > 0;
    case CompareOp::kGt:
      return st.max.Compare(c) <= 0;
    case CompareOp::kGe:
      return st.max.Compare(c) < 0;
    case CompareOp::kLike:
      break;
  }
  return false;
}

int Sign3(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

// Keeps rows passing `test`: appends [first, last) survivors when
// building the selection, compacts `sel` in place when refining it.
template <typename Test>
void Sieve(bool build, size_t first, size_t last, Test&& test,
           std::vector<uint32_t>* sel) {
  if (build) {
    for (size_t r = first; r < last; ++r) {
      if (test(r)) sel->push_back(static_cast<uint32_t>(r));
    }
    return;
  }
  size_t w = 0;
  for (uint32_t r : *sel) {
    if (test(r)) (*sel)[w++] = r;
  }
  sel->resize(w);
}

// Typed three-way compare loops; `cmp(r)` must reproduce
// Value::Compare(column[r], constant) exactly.
template <typename Cmp>
void SieveTyped(CompareOp op, const std::vector<uint8_t>& nulls, Cmp cmp,
                bool build, size_t first, size_t last,
                std::vector<uint32_t>* sel) {
  Sieve(
      build, first, last,
      [&](size_t r) { return nulls[r] == 0 && OpHolds(op, cmp(r)); }, sel);
}

// Applies one condition over block rows [first, last): typed tight loop
// when the storage and constant types allow, generic ApplyCompare
// otherwise.
Status ApplyCondition(const ColumnarRelation& rel, const ColumnCondition& cond,
                      bool build, size_t first, size_t last,
                      std::vector<uint32_t>* sel) {
  const Column& col = rel.column(cond.column);
  const Value& cv = cond.constant;
  if (cv.is_null()) {
    // ApplyCompare against null is false for every row.
    sel->clear();
    return Status::Ok();
  }
  const std::vector<uint8_t>& nulls = col.null_mask();
  if (cond.op != CompareOp::kLike &&
      StorageComparableWith(col.storage(), cv.type())) {
    switch (col.storage()) {
      case Column::Storage::kInt: {
        const std::vector<int64_t>& v = col.ints();
        if (cv.type() == ValueType::kInt) {
          int64_t c = cv.AsInt();
          SieveTyped(
              cond.op, nulls,
              [&](size_t r) { return v[r] < c ? -1 : (v[r] > c ? 1 : 0); },
              build, first, last, sel);
        } else {
          double c = cv.AsReal();
          SieveTyped(
              cond.op, nulls,
              [&](size_t r) { return Sign3(static_cast<double>(v[r]) - c); },
              build, first, last, sel);
        }
        return Status::Ok();
      }
      case Column::Storage::kReal: {
        const std::vector<double>& v = col.reals();
        double c = cv.type() == ValueType::kInt
                       ? static_cast<double>(cv.AsInt())
                       : cv.AsReal();
        SieveTyped(
            cond.op, nulls, [&](size_t r) { return Sign3(v[r] - c); }, build,
            first, last, sel);
        return Status::Ok();
      }
      case Column::Storage::kString: {
        const std::vector<std::string>& v = col.strings();
        const std::string& c = cv.AsString();
        SieveTyped(
            cond.op, nulls,
            [&](size_t r) {
              int d = v[r].compare(c);
              return d < 0 ? -1 : (d > 0 ? 1 : 0);
            },
            build, first, last, sel);
        return Status::Ok();
      }
      case Column::Storage::kDate: {
        const std::vector<Date>& v = col.dates();
        int64_t c = cv.AsDate().ToEpochDays();
        SieveTyped(
            cond.op, nulls,
            [&](size_t r) {
              int64_t d = v[r].ToEpochDays();
              return d < c ? -1 : (d > c ? 1 : 0);
            },
            build, first, last, sel);
        return Status::Ok();
      }
      case Column::Storage::kMixed:
        break;  // unreachable: StorageComparableWith rejects kMixed
    }
  }
  // Generic path: kLike and kMixed storage.
  Status status = Status::Ok();
  Sieve(
      build, first, last,
      [&](size_t r) {
        if (!status.ok()) return false;
        Result<bool> keep = ApplyCompare(cond.op, col.Get(r), cv);
        if (!keep.ok()) {
          status = keep.status();
          return false;
        }
        return *keep;
      },
      sel);
  return status;
}

// Applies `conds`, then `residual`, to `sel`: the candidate rows when
// `built`, else block rows [first, last).
Status Select(const ColumnarRelation& rel,
              const std::vector<ColumnCondition>& conds,
              const Predicate* residual, bool built, size_t first,
              size_t last, std::vector<uint32_t>* sel) {
  for (const ColumnCondition& cond : conds) {
    IQS_RETURN_IF_ERROR(ApplyCondition(rel, cond, !built, first, last, sel));
    built = true;
    // Every row was rejected: nothing is left for later conditions or
    // the residual.
    if (sel->empty()) return Status::Ok();
  }
  if (!built) {
    sel->reserve(last - first);
    for (size_t r = first; r < last; ++r) {
      sel->push_back(static_cast<uint32_t>(r));
    }
  }
  if (residual != nullptr && !sel->empty()) {
    size_t w = 0;
    for (uint32_t r : *sel) {
      IQS_ASSIGN_OR_RETURN(bool keep, residual->Eval(rel.MaterializeRow(r)));
      if (keep) (*sel)[w++] = r;
    }
    sel->resize(w);
  }
  return Status::Ok();
}

// Smallest parallel chunk of a scan without a residual, in blocks. Typed
// conditions cost a few microseconds per block, less than waking the
// pool's workers, so such a scan runs inline below twice this; with a
// residual every surviving row is materialized and evaluated, which pays
// for a chunk per block.
constexpr size_t kConditionBlocksPerChunk = 32;

}  // namespace

Result<std::vector<uint32_t>> ColumnarScan(
    const ColumnarRelation& rel,
    const std::vector<ColumnCondition>& conditions, const Predicate* residual,
    ColumnarScanStats* stats) {
  size_t blocks = rel.block_count();

  struct Acc {
    std::vector<uint32_t> rows;
    size_t pruned = 0;
  };
  using Part = Result<Acc>;
  Part merged = exec::ParallelReduce<Part>(
      "exec.scan.columnar", blocks,
      residual == nullptr ? kConditionBlocksPerChunk : 1, Acc{},
      [&](size_t bfirst, size_t bend) -> Part {
        Acc local;
        std::vector<uint32_t> kept;  // one block's survivors
        for (size_t b = bfirst; b < bend; ++b) {
          // One governance check per 1024-row block — pruned or scanned,
          // the deadline is observed at block cadence.
          IQS_GOV_CHECKPOINT("columnar.scan");
          bool pruned = false;
          for (size_t i = 0; i < conditions.size() && !pruned; ++i) {
            pruned = BlockPrunable(rel, conditions[i], b);
          }
          if (pruned) {
            ++local.pruned;
            continue;
          }
          auto [first, last] = rel.BlockRange(b);
          kept.clear();
          IQS_RETURN_IF_ERROR(Select(rel, conditions, residual,
                                     /*built=*/false, first, last, &kept));
          local.rows.insert(local.rows.end(), kept.begin(), kept.end());
        }
        return local;
      },
      [](Part* acc, Part&& part) {
        if (!acc->ok()) return;
        if (!part.ok()) {
          *acc = std::move(part);
          return;
        }
        Acc& dst = **acc;
        if (dst.rows.empty()) {
          dst.rows = std::move(part->rows);
        } else {
          dst.rows.insert(dst.rows.end(), part->rows.begin(),
                          part->rows.end());
        }
        dst.pruned += part->pruned;
      });
  if (!merged.ok()) return merged.status();
  if (stats != nullptr) {
    stats->blocks_total = blocks;
    stats->blocks_pruned = merged->pruned;
  }
  return std::move(merged->rows);
}

Result<std::vector<uint32_t>> ColumnarFilter(
    const ColumnarRelation& rel,
    const std::vector<ColumnCondition>& conditions, const Predicate* residual,
    std::vector<uint32_t> rows) {
  IQS_RETURN_IF_ERROR(
      Select(rel, conditions, residual, /*built=*/true, 0, 0, &rows));
  return rows;
}

}  // namespace iqs
