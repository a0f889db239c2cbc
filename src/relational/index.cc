#include "relational/index.h"

#include <algorithm>

namespace iqs {

Result<SortedIndex> SortedIndex::Build(const Relation& relation,
                                       const std::string& attribute) {
  IQS_ASSIGN_OR_RETURN(size_t idx, relation.schema().IndexOf(attribute));
  std::vector<Entry> entries;
  entries.reserve(relation.size());
  for (size_t r = 0; r < relation.size(); ++r) {
    const Value& v = relation.row(r).at(idx);
    if (v.is_null()) continue;
    entries.push_back(Entry{v, r});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     int c = a.value.Compare(b.value);
                     if (c != 0) return c < 0;
                     return a.row < b.row;
                   });
  return SortedIndex(attribute, std::move(entries));
}

size_t SortedIndex::LowerBound(const Value& v) const {
  size_t lo = 0, hi = entries_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (entries_[mid].value.Compare(v) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t SortedIndex::UpperBound(const Value& v) const {
  size_t lo = 0, hi = entries_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (entries_[mid].value.Compare(v) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<size_t> SortedIndex::Lookup(const Value& v) const {
  return Range(v, v);
}

std::vector<size_t> SortedIndex::Range(const Value& lo,
                                       const Value& hi) const {
  std::vector<size_t> out;
  size_t begin = LowerBound(lo);
  size_t end = UpperBound(hi);
  for (size_t i = begin; i < end; ++i) out.push_back(entries_[i].row);
  std::sort(out.begin(), out.end());
  return out;
}

Result<Value> SortedIndex::Min() const {
  if (entries_.empty()) return Status::NotFound("index is empty");
  return entries_.front().value;
}

Result<Value> SortedIndex::Max() const {
  if (entries_.empty()) return Status::NotFound("index is empty");
  return entries_.back().value;
}

}  // namespace iqs
