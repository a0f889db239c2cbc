#include "relational/column_store.h"

#include <utility>

#include "exec/exec_context.h"
#include "exec/parallel.h"

namespace iqs {

namespace {

int Sign3(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

Column::Storage StorageFor(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return Column::Storage::kInt;
    case ValueType::kReal:
      return Column::Storage::kReal;
    case ValueType::kString:
      return Column::Storage::kString;
    case ValueType::kDate:
      return Column::Storage::kDate;
    case ValueType::kNull:
      break;
  }
  return Column::Storage::kMixed;
}

}  // namespace

Value Column::Get(size_t row) const {
  switch (storage_) {
    case Storage::kInt:
      return nulls_[row] ? Value::Null() : Value::Int(ints_[row]);
    case Storage::kReal:
      return nulls_[row] ? Value::Null() : Value::Real(reals_[row]);
    case Storage::kString:
      return nulls_[row] ? Value::Null() : Value::String(strings_[row]);
    case Storage::kDate:
      return nulls_[row] ? Value::Null() : Value::OfDate(dates_[row]);
    case Storage::kMixed:
      return mixed_[row];
  }
  return Value::Null();
}

int Column::CompareRows(size_t a, size_t b) const {
  if (storage_ != Storage::kMixed) {
    bool an = nulls_[a] != 0, bn = nulls_[b] != 0;
    if (an || bn) return (an ? 0 : 1) - (bn ? 0 : 1);  // null sorts first
  }
  switch (storage_) {
    case Storage::kInt: {
      int64_t x = ints_[a], y = ints_[b];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case Storage::kReal:
      return Sign3(reals_[a] - reals_[b]);
    case Storage::kString: {
      int c = strings_[a].compare(strings_[b]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Storage::kDate: {
      int64_t x = dates_[a].ToEpochDays(), y = dates_[b].ToEpochDays();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case Storage::kMixed:
      return mixed_[a].Compare(mixed_[b]);
  }
  return 0;
}

Status ColumnarRelation::BuildColumn(const Relation& rel, size_t c) {
  IQS_GOV_CHECKPOINT("columnar.transpose");
  Column& col = columns_[c];
  col.declared_ = schema_.attribute(c).type;

  // First pass: does any value disagree with its declared type? Checked
  // base relations never do; derived relations built via AppendUnchecked
  // may, and such a column demotes to exact-Value kMixed storage.
  bool mixed = StorageFor(col.declared_) == Column::Storage::kMixed;
  if (!mixed) {
    for (const Tuple& t : rel.rows()) {
      const Value& v = t.at(c);
      if (!v.is_null() && v.type() != col.declared_) {
        mixed = true;
        break;
      }
    }
  }
  col.storage_ = mixed ? Column::Storage::kMixed : StorageFor(col.declared_);

  size_t n = rel.size();
  // One estimated charge for this column's array before filling it.
  IQS_RETURN_IF_ERROR(exec::ChargeRows("columnar.transpose", n, 1));
  if (col.storage_ == Column::Storage::kMixed) {
    col.mixed_.reserve(n);
    for (const Tuple& t : rel.rows()) col.mixed_.push_back(t.at(c));
  } else {
    col.nulls_.assign(n, 0);
    switch (col.storage_) {
      case Column::Storage::kInt:
        col.ints_.assign(n, 0);
        break;
      case Column::Storage::kReal:
        col.reals_.assign(n, 0.0);
        break;
      case Column::Storage::kString:
        col.strings_.assign(n, std::string());
        break;
      case Column::Storage::kDate:
        col.dates_.assign(n, Date());
        break;
      case Column::Storage::kMixed:
        break;
    }
    for (size_t r = 0; r < n; ++r) {
      if ((r & 8191) == 0) IQS_GOV_CHECKPOINT("columnar.transpose");
      const Value& v = rel.row(r).at(c);
      if (v.is_null()) {
        col.nulls_[r] = 1;
        continue;
      }
      switch (col.storage_) {
        case Column::Storage::kInt:
          col.ints_[r] = v.AsInt();
          break;
        case Column::Storage::kReal:
          col.reals_[r] = v.AsReal();
          break;
        case Column::Storage::kString:
          col.strings_[r] = v.AsString();
          break;
        case Column::Storage::kDate:
          col.dates_[r] = v.AsDate();
          break;
        case Column::Storage::kMixed:
          break;
      }
    }
  }

  // Zone maps: per (column, block) min/max over non-null entries, with
  // the first-seen representative kept among Compare-equal values (the
  // strict-< scan Relation::ActiveDomain performs).
  size_t blocks = block_count();
  for (size_t b = 0; b < blocks; ++b) {
    if ((b & 63) == 0) IQS_GOV_CHECKPOINT("columnar.transpose");
    auto [first, last] = BlockRange(b);
    BlockStats& st = stats_[c * blocks + b];
    size_t min_row = 0, max_row = 0;
    bool seen = false;
    for (size_t r = first; r < last; ++r) {
      if (col.IsNull(r)) continue;
      ++st.non_null;
      if (!seen) {
        min_row = max_row = r;
        seen = true;
        continue;
      }
      if (col.CompareRows(r, min_row) < 0) min_row = r;
      if (col.CompareRows(r, max_row) > 0) max_row = r;
    }
    if (seen) {
      st.min = col.Get(min_row);
      st.max = col.Get(max_row);
    }
  }
  return Status::Ok();
}

Result<ColumnarRelation> ColumnarRelation::Transpose(const Relation& rel) {
  ColumnarRelation out;
  out.name_ = rel.name();
  out.schema_ = rel.schema();
  out.row_count_ = rel.size();
  size_t width = rel.schema().size();
  out.columns_.resize(width);
  out.stats_.resize(width * out.block_count());
  // Columns are independent slots, so the per-column build parallelizes
  // with no merge beyond first-error-wins; the serial column order is
  // immaterial to the bytes produced.
  Status built = exec::ParallelReduce<Status>(
      "exec.transpose", width, 1, Status::Ok(),
      [&out, &rel](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          IQS_RETURN_IF_ERROR(out.BuildColumn(rel, c));
        }
        return Status::Ok();
      },
      [](Status* acc, Status&& part) {
        if (acc->ok() && !part.ok()) *acc = std::move(part);
      });
  IQS_RETURN_IF_ERROR(std::move(built));
  return out;
}

ColumnarRelation ColumnarRelation::FromRelation(const Relation& rel) {
  // Mask any installed governance context: this entry point is the
  // infallible one tests and benches rely on, and a transpose it runs is
  // not work the surrounding query asked for.
  exec::ScopedExecContext ungoverned(nullptr);
  Result<ColumnarRelation> out = Transpose(rel);
  return std::move(*out);
}

Tuple ColumnarRelation::MaterializeRow(size_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const Column& col : columns_) values.push_back(col.Get(row));
  return Tuple(std::move(values));
}

Relation ColumnarRelation::ToRelation() const {
  Relation out(name_, schema_);
  for (size_t r = 0; r < row_count_; ++r) {
    out.AppendUnchecked(MaterializeRow(r));
  }
  return out;
}

Result<std::pair<Value, Value>> ColumnarRelation::ColumnMinMax(
    size_t i) const {
  size_t blocks = block_count();
  Value lo, hi;
  bool seen = false;
  for (size_t b = 0; b < blocks; ++b) {
    const BlockStats& st = stats_[i * blocks + b];
    if (st.non_null == 0) continue;
    if (!seen) {
      lo = st.min;
      hi = st.max;
      seen = true;
      continue;
    }
    if (st.min < lo) lo = st.min;
    if (st.max > hi) hi = st.max;
  }
  if (!seen) {
    return Status::NotFound("column '" + schema_.attribute(i).name + "' of " +
                            name_ + " has no non-null values");
  }
  return std::make_pair(lo, hi);
}

}  // namespace iqs
