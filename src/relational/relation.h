#ifndef IQS_RELATIONAL_RELATION_H_
#define IQS_RELATIONAL_RELATION_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace iqs {

// A named in-memory table: a Schema plus a bag of tuples. This is the EDB
// building block (paper §4). Primary-key uniqueness is enforced on insert
// when the schema declares key attributes, through a hash index of the
// key columns, so a checked insert costs O(1) rather than O(rows).
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  // Inserts after checking arity, per-attribute type conformance (null is
  // accepted for any type), and key uniqueness.
  Status Insert(Tuple tuple);

  // Convenience: builds the tuple from per-attribute text using
  // Value::FromText with the schema types.
  Status InsertText(const std::vector<std::string>& fields);

  // Unchecked append for operators that construct known-conformant rows.
  void AppendUnchecked(Tuple tuple) { rows_.push_back(std::move(tuple)); }
  void Reserve(size_t rows) { rows_.reserve(rows); }

  // Removes all rows matching `pred`; returns how many were removed.
  size_t DeleteWhere(const std::function<bool(const Tuple&)>& pred);

  void Clear() {
    rows_.clear();
    DropKeyIndex();
  }

  // Value of attribute `name` in row `i`.
  Result<Value> GetValue(size_t i, const std::string& name) const;

  // All values of one attribute, in row order.
  Result<std::vector<Value>> Column(const std::string& name) const;

  // Observed [min, max] of a column, ignoring nulls; NotFound when the
  // column is empty or all-null. This is the "active domain" used for
  // clipping query conditions during forward inference (DESIGN.md §4).
  Result<std::pair<Value, Value>> ActiveDomain(const std::string& name) const;

  // Sorts rows in place lexicographically by the given attribute names.
  Status SortBy(const std::vector<std::string>& attribute_names);

  // ASCII table rendering with a header, for examples and bench output.
  std::string ToTable() const;

 private:
  // Whether a stored row has `tuple`'s key; indexes the rows not yet
  // indexed first.
  bool HasKey(const Tuple& tuple, const std::vector<size_t>& key);
  void DropKeyIndex() {
    key_index_.clear();
    key_scan_ = false;
  }

  std::string name_;
  Schema schema_;
  std::vector<Tuple> rows_;
  // Insert's duplicate-key index: key hash -> row position, one entry
  // for each of the first key_index_.size() rows. Built by the first
  // keyed Insert and extended by each one, which also indexes rows
  // appended unchecked since; DeleteWhere, SortBy and Clear drop it. A
  // NaN key value equals every number, so once one is indexed
  // (key_scan_) Insert compares with every row, as it did before the
  // index.
  std::unordered_multimap<size_t, size_t> key_index_;
  bool key_scan_ = false;
};

}  // namespace iqs

#endif  // IQS_RELATIONAL_RELATION_H_
