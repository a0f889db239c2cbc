#ifndef IQS_RELATIONAL_COLUMN_STORE_H_
#define IQS_RELATIONAL_COLUMN_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/relation.h"

namespace iqs {

// Column-major relation representation (DESIGN.md §14): one typed
// contiguous array per attribute, carved into fixed-size row-group
// blocks with per-block min/max zone maps. Built as an immutable
// snapshot of a row Relation — Database::ColumnarSnapshot caches one per
// relation keyed by the data epoch, so any mutation retires it the same
// way it retires cached answers.
//
// It is the one read path for stored relations: the SQL executor (and
// QUEL, which lowers onto it) reads every stored FROM entry through
// ColumnarScan in algebra.h, induction sorts and segments these columns,
// and the data dictionary folds its active domains from the zone maps.
// Semantics contract: each produces byte-identical output to an
// independent row-at-a-time reference — testing_util::TupleAtATimeRows
// for queries, InduceSchemeRowsWithStats for induction,
// Relation::ActiveDomain for domains; `ctest -L columnar` checks it.

// Rows per block. Zone maps are kept per (column, block); 1024 keeps the
// per-block metadata negligible while making min/max skips coarse enough
// to pay for themselves.
inline constexpr size_t kColumnarBlockRows = 1024;

// Per-(column, block) statistics. min/max are over non-null entries only
// (null sorts below everything, so folding it in would pin every min);
// representatives are first-seen in row order, matching the strict-<
// scan Relation::ActiveDomain performs.
struct BlockStats {
  Value min;            // null when the block is all-null in this column
  Value max;
  size_t non_null = 0;  // rows of the block with a non-null entry
};

// One attribute's values across all rows. Storage is dictated by the
// declared schema type; rows whose dynamic type disagrees with the
// declaration (possible for derived relations built via AppendUnchecked)
// demote the whole column to kMixed, which keeps exact Values and falls
// back to generic evaluation everywhere.
class Column {
 public:
  enum class Storage { kInt, kReal, kString, kDate, kMixed };

  Storage storage() const { return storage_; }
  ValueType declared_type() const { return declared_; }
  size_t size() const { return nulls_.empty() ? mixed_.size() : nulls_.size(); }

  bool IsNull(size_t row) const {
    return storage_ == Storage::kMixed ? mixed_[row].is_null()
                                       : nulls_[row] != 0;
  }

  // Materializes row `row` back into a Value equal (and rendering
  // byte-identical) to the one the source Relation held.
  Value Get(size_t row) const;

  // Three-way compare of two entries; matches Value::Compare exactly
  // (including null-sorts-first) while staying allocation-free for the
  // typed storages.
  int CompareRows(size_t a, size_t b) const;

  // Typed views; valid only for the matching storage kind.
  // null_mask is empty for kMixed storage (nulls live in the Values).
  const std::vector<uint8_t>& null_mask() const { return nulls_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& reals() const { return reals_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<Date>& dates() const { return dates_; }

 private:
  friend class ColumnarRelation;

  Storage storage_ = Storage::kMixed;
  ValueType declared_ = ValueType::kString;
  // 1 = null, for the typed storages (kMixed keeps nulls in-line).
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> reals_;
  std::vector<std::string> strings_;
  std::vector<Date> dates_;
  std::vector<Value> mixed_;
};

// The immutable columnar snapshot of one Relation.
class ColumnarRelation {
 public:
  // Transposes `rel` into typed per-attribute arrays and computes the
  // zone maps. O(rows * columns), parallelized per column over the exec
  // pool. Governed: charges the transposed bytes to the current
  // ExecContext and unwinds with a typed error at the
  // "columnar.transpose" checkpoint, so an over-deadline query can't
  // hide inside snapshot construction.
  static Result<ColumnarRelation> Transpose(const Relation& rel);

  // Infallible transpose for tests and benches: same bytes as
  // Transpose, evaluated outside any governance context.
  static ColumnarRelation FromRelation(const Relation& rel);

  // Materializes back into a row Relation byte-identical to the source
  // (schema, name, row order, value renderings).
  Relation ToRelation() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t row_count() const { return row_count_; }
  size_t block_count() const {
    return (row_count_ + kColumnarBlockRows - 1) / kColumnarBlockRows;
  }
  // Row range [first, last) of block `b`.
  std::pair<size_t, size_t> BlockRange(size_t b) const {
    size_t first = b * kColumnarBlockRows;
    size_t last = first + kColumnarBlockRows;
    if (last > row_count_) last = row_count_;
    return {first, last};
  }

  const Column& column(size_t i) const { return columns_[i]; }
  const BlockStats& stats(size_t column, size_t block) const {
    return stats_[column * block_count() + block];
  }

  // Full row `row` as a Tuple (the scan's residual predicates and the
  // executors' output materialization both run over these).
  Tuple MaterializeRow(size_t row) const;

  // Observed [min, max] of column `i` ignoring nulls, folded from the
  // zone maps without touching row data; NotFound when the column has no
  // non-null values. Matches Relation::ActiveDomain including the
  // first-seen representative among Compare-equal values.
  Result<std::pair<Value, Value>> ColumnMinMax(size_t i) const;

 private:
  // Builds column `c` (storage detection, typed fill, zone-map slice) —
  // the unit of per-column parallelism in Transpose. Non-OK only from
  // governance checkpoints.
  Status BuildColumn(const Relation& rel, size_t c);

  std::string name_;
  Schema schema_;
  size_t row_count_ = 0;
  std::vector<Column> columns_;
  std::vector<BlockStats> stats_;  // [column * block_count + block]
};

}  // namespace iqs

#endif  // IQS_RELATIONAL_COLUMN_STORE_H_
