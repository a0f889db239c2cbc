#ifndef IQS_RELATIONAL_VALUE_H_
#define IQS_RELATIONAL_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"
#include "relational/date.h"

namespace iqs {

// The basic domains the KER model provides (paper §2): integer, real,
// string, and date, plus null for absent values.
enum class ValueType {
  kNull = 0,
  kInt,
  kReal,
  kString,
  kDate,
};

const char* ValueTypeName(ValueType type);

// Parses "integer" / "real" / "string" / "date" (case-insensitive,
// "int"/"char" accepted as aliases).
Result<ValueType> ValueTypeFromName(const std::string& name);

// A dynamically typed database value with a total order.
//
// Ordering rules:
//  * null sorts before everything (and equals only null);
//  * int and real compare numerically with each other;
//  * strings compare lexicographically by bytes — this is what makes the
//    paper's string interval rules (e.g. "SSN623 <= Id <= SSN635") work;
//  * dates compare chronologically;
//  * otherwise values order by type rank (comparisons across unrelated
//    types are usually rejected earlier by the type checker).
class Value {
 public:
  // Constructs null.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Real(double v) { return Value(Repr(v)); }
  static Value String(std::string v) { return Value(Repr(std::move(v))); }
  static Value OfDate(Date v) { return Value(Repr(v)); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  // Typed accessors; calling the wrong one is a programming error.
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsReal() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const Date& AsDate() const { return std::get<Date>(data_); }

  // Numeric view: int or real as double. Error for other types.
  Result<double> AsNumeric() const;

  // Lossless round trip with FromText for every type; null renders as "".
  std::string ToString() const;

  // Parses `text` as a value of `type`. Empty text parses to null.
  static Result<Value> FromText(ValueType type, const std::string& text);

  // Three-way comparison implementing the total order above:
  // negative / zero / positive.
  int Compare(const Value& other) const;

  // True when this value and `other` belong to comparable domains
  // (same type, or int/real mix).
  bool ComparableWith(const Value& other) const;

 private:
  using Repr = std::variant<std::monostate, int64_t, double, std::string, Date>;
  explicit Value(Repr data) : data_(std::move(data)) {}

  Repr data_;
};

inline bool operator==(const Value& a, const Value& b) {
  return a.Compare(b) == 0;
}
inline bool operator!=(const Value& a, const Value& b) {
  return a.Compare(b) != 0;
}
inline bool operator<(const Value& a, const Value& b) {
  return a.Compare(b) < 0;
}
inline bool operator<=(const Value& a, const Value& b) {
  return a.Compare(b) <= 0;
}
inline bool operator>(const Value& a, const Value& b) {
  return a.Compare(b) > 0;
}
inline bool operator>=(const Value& a, const Value& b) {
  return a.Compare(b) >= 0;
}

std::ostream& operator<<(std::ostream& os, const Value& value);

// The one hash consistent with Value::Compare: values that compare equal
// hash alike (an Int and a Real as the same double, -0.0 as 0.0, null as
// 0). Nullopt for NaN, which compares equal to every number, so callers
// fall back to comparison for it. Relation's key index and the executor's
// join keys, GROUP BY and DISTINCT (through Column::Hash) hash with it.
std::optional<size_t> HashValue(const Value& value);
// HashValue of a string value, without building the Value.
size_t HashString(std::string_view text);

// Folds one value's hash into the hash of the values before it in a row.
inline size_t HashCombine(size_t hash, size_t value_hash) {
  return hash ^ (value_hash + 0x9e3779b97f4a7c15ULL + (hash << 6) +
                 (hash >> 2));
}

}  // namespace iqs

#endif  // IQS_RELATIONAL_VALUE_H_
