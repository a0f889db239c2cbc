#include "relational/relation.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/string_util.h"

namespace iqs {

namespace {

size_t HashNumber(double d) {
  return d == 0.0 ? 0 : std::hash<double>{}(d);  // -0.0 equals 0.0
}

// Hash of `tuple`'s key columns, consistent with Value equality: an Int
// and a Real that compare equal hash alike, and so do two nulls. Nullopt
// when a key value is NaN, which compares equal to every number.
std::optional<size_t> KeyHash(const Tuple& tuple,
                              const std::vector<size_t>& key) {
  size_t hash = 0;
  for (size_t k : key) {
    const Value& v = tuple.at(k);
    size_t h = 0;
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        h = HashNumber(static_cast<double>(v.AsInt()));
        break;
      case ValueType::kReal:
        if (std::isnan(v.AsReal())) return std::nullopt;
        h = HashNumber(v.AsReal());
        break;
      case ValueType::kString:
        h = std::hash<std::string>{}(v.AsString());
        break;
      case ValueType::kDate:
        h = std::hash<int64_t>{}(v.AsDate().ToEpochDays());
        break;
    }
    hash ^= h + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  }
  return hash;
}

bool SameKey(const Tuple& a, const Tuple& b, const std::vector<size_t>& key) {
  for (size_t k : key) {
    if (a.at(k) != b.at(k)) return false;
  }
  return true;
}

}  // namespace

Status Relation::Insert(Tuple tuple) {
  if (tuple.size() != schema_.size()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into " + name_ + ": got " +
        std::to_string(tuple.size()) + " values, schema has " +
        std::to_string(schema_.size()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    const Value& v = tuple.at(i);
    if (v.is_null()) continue;
    ValueType expected = schema_.attribute(i).type;
    if (v.type() != expected) {
      // Allow int into real columns (widening); everything else is an error.
      if (expected == ValueType::kReal && v.type() == ValueType::kInt) {
        tuple.at(i) = Value::Real(static_cast<double>(v.AsInt()));
        continue;
      }
      return Status::TypeError("attribute '" + schema_.attribute(i).name +
                               "' of " + name_ + " expects " +
                               ValueTypeName(expected) + ", got " +
                               ValueTypeName(v.type()));
    }
  }
  std::vector<size_t> key = schema_.KeyIndices();
  if (!key.empty() && HasKey(tuple, key)) {
    return Status::AlreadyExists("duplicate key inserting into " + name_ +
                                 ": " + tuple.ToString());
  }
  rows_.push_back(std::move(tuple));
  return Status::Ok();
}

bool Relation::HasKey(const Tuple& tuple, const std::vector<size_t>& key) {
  for (size_t i = key_index_.size(); i < rows_.size(); ++i) {
    std::optional<size_t> hash = KeyHash(rows_[i], key);
    key_scan_ |= !hash.has_value();
    key_index_.emplace(hash.value_or(0), i);
  }
  std::optional<size_t> hash = KeyHash(tuple, key);
  if (key_scan_ || !hash.has_value()) {
    for (const Tuple& existing : rows_) {
      if (SameKey(existing, tuple, key)) return true;
    }
    return false;
  }
  auto [first, last] = key_index_.equal_range(*hash);
  for (auto it = first; it != last; ++it) {
    if (SameKey(rows_[it->second], tuple, key)) return true;
  }
  return false;
}

Status Relation::InsertText(const std::vector<std::string>& fields) {
  if (fields.size() != schema_.size()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into " + name_ + ": got " +
        std::to_string(fields.size()) + " fields, schema has " +
        std::to_string(schema_.size()));
  }
  Tuple tuple;
  for (size_t i = 0; i < fields.size(); ++i) {
    IQS_ASSIGN_OR_RETURN(Value v,
                         Value::FromText(schema_.attribute(i).type, fields[i]));
    tuple.Append(std::move(v));
  }
  return Insert(std::move(tuple));
}

size_t Relation::DeleteWhere(const std::function<bool(const Tuple&)>& pred) {
  DropKeyIndex();
  size_t before = rows_.size();
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(), pred), rows_.end());
  return before - rows_.size();
}

Result<Value> Relation::GetValue(size_t i, const std::string& name) const {
  if (i >= rows_.size()) {
    return Status::InvalidArgument("row index out of range");
  }
  IQS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  return rows_[i].at(idx);
}

Result<std::vector<Value>> Relation::Column(const std::string& name) const {
  IQS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  std::vector<Value> out;
  out.reserve(rows_.size());
  for (const Tuple& t : rows_) out.push_back(t.at(idx));
  return out;
}

Result<std::pair<Value, Value>> Relation::ActiveDomain(
    const std::string& name) const {
  IQS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  bool seen = false;
  Value lo, hi;
  for (const Tuple& t : rows_) {
    const Value& v = t.at(idx);
    if (v.is_null()) continue;
    if (!seen) {
      lo = hi = v;
      seen = true;
    } else {
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
  }
  if (!seen) {
    return Status::NotFound("column '" + name + "' of " + name_ +
                            " has no non-null values");
  }
  return std::make_pair(lo, hi);
}

Status Relation::SortBy(const std::vector<std::string>& attribute_names) {
  std::vector<size_t> idx;
  idx.reserve(attribute_names.size());
  for (const std::string& a : attribute_names) {
    IQS_ASSIGN_OR_RETURN(size_t i, schema_.IndexOf(a));
    idx.push_back(i);
  }
  DropKeyIndex();
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&idx](const Tuple& a, const Tuple& b) {
                     for (size_t i : idx) {
                       int c = a.at(i).Compare(b.at(i));
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  return Status::Ok();
}

std::string Relation::ToTable() const {
  std::vector<size_t> widths(schema_.size());
  for (size_t i = 0; i < schema_.size(); ++i) {
    widths[i] = schema_.attribute(i).name.size();
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  for (const Tuple& t : rows_) {
    std::vector<std::string> row;
    row.reserve(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      row.push_back(t.at(i).ToString());
      widths[i] = std::max(widths[i], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  std::string out;
  auto add_rule = [&] {
    out += "+";
    for (size_t w : widths) {
      out.append(w + 2, '-');
      out += "+";
    }
    out += "\n";
  };
  add_rule();
  out += "|";
  for (size_t i = 0; i < schema_.size(); ++i) {
    out += " " + PadRight(schema_.attribute(i).name, widths[i]) + " |";
  }
  out += "\n";
  add_rule();
  for (const auto& row : cells) {
    out += "|";
    for (size_t i = 0; i < row.size(); ++i) {
      out += " " + PadRight(row[i], widths[i]) + " |";
    }
    out += "\n";
  }
  add_rule();
  return out;
}

}  // namespace iqs
