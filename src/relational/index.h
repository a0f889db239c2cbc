#ifndef IQS_RELATIONAL_INDEX_H_
#define IQS_RELATIONAL_INDEX_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/relation.h"

namespace iqs {

// A sorted secondary index over one attribute of a Relation. It stores
// (value, row id) pairs ordered by value and answers point and inclusive
// range lookups by binary search. The inference engine uses range lookups
// to count rule support and to verify intensional answers against the EDB;
// it corresponds to the ISAM access paths INGRES would provide.
//
// The index is a snapshot: mutations to the base relation after Build are
// not reflected.
class SortedIndex {
 public:
  // Builds an index over `attribute` of `relation`. Null values are not
  // indexed.
  static Result<SortedIndex> Build(const Relation& relation,
                                   const std::string& attribute);

  const std::string& attribute() const { return attribute_; }
  size_t size() const { return entries_.size(); }

  // Row ids with value == v, in ascending row order.
  std::vector<size_t> Lookup(const Value& v) const;

  // Row ids with lo <= value <= hi (inclusive both ends).
  std::vector<size_t> Range(const Value& lo, const Value& hi) const;

  // Smallest / largest indexed value; NotFound when empty.
  Result<Value> Min() const;
  Result<Value> Max() const;

 private:
  struct Entry {
    Value value;
    size_t row;
  };

  SortedIndex(std::string attribute, std::vector<Entry> entries)
      : attribute_(std::move(attribute)), entries_(std::move(entries)) {}

  // Index of first entry with value >= v.
  size_t LowerBound(const Value& v) const;
  // Index of first entry with value > v.
  size_t UpperBound(const Value& v) const;

  std::string attribute_;
  std::vector<Entry> entries_;
};

}  // namespace iqs

#endif  // IQS_RELATIONAL_INDEX_H_
