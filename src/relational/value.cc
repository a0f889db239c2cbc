#include "relational/value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <ostream>

#include "common/string_util.h"

namespace iqs {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "integer";
    case ValueType::kReal:
      return "real";
    case ValueType::kString:
      return "string";
    case ValueType::kDate:
      return "date";
  }
  return "unknown";
}

Result<ValueType> ValueTypeFromName(const std::string& name) {
  std::string lower = ToLower(StripWhitespace(name));
  // KER's CHAR[n] domains map to string; the length bound is tracked at the
  // KER domain layer, not here.
  if (lower == "integer" || lower == "int") return ValueType::kInt;
  if (lower == "real" || lower == "float" || lower == "double") {
    return ValueType::kReal;
  }
  if (lower == "string" || StartsWith(lower, "char")) {
    return ValueType::kString;
  }
  if (lower == "date") return ValueType::kDate;
  return Status::InvalidArgument("unknown value type name '" + name + "'");
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt;
    case 2:
      return ValueType::kReal;
    case 3:
      return ValueType::kString;
    case 4:
      return ValueType::kDate;
  }
  return ValueType::kNull;
}

Result<double> Value::AsNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kReal:
      return AsReal();
    default:
      return Status::TypeError(std::string("value of type ") +
                               ValueTypeName(type()) + " is not numeric");
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kReal:
      return FormatDouble(AsReal());
    case ValueType::kString:
      return AsString();
    case ValueType::kDate:
      return AsDate().ToString();
  }
  return "";
}

Result<Value> Value::FromText(ValueType type, const std::string& text) {
  if (text.empty() && type != ValueType::kString) return Value::Null();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::ParseError("'" + text + "' is not an integer");
      }
      return Value::Int(v);
    }
    case ValueType::kReal: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::ParseError("'" + text + "' is not a real");
      }
      return Value::Real(v);
    }
    case ValueType::kString:
      return Value::String(text);
    case ValueType::kDate: {
      IQS_ASSIGN_OR_RETURN(Date d, Date::FromString(text));
      return Value::OfDate(d);
    }
  }
  return Status::Internal("unreachable value type");
}

namespace {
int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }
}  // namespace

bool Value::ComparableWith(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  if (a == ValueType::kNull || b == ValueType::kNull) return true;
  if (a == b) return true;
  bool a_num = a == ValueType::kInt || a == ValueType::kReal;
  bool b_num = b == ValueType::kInt || b == ValueType::kReal;
  return a_num && b_num;
}

int Value::Compare(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  // Null sorts first.
  if (a == ValueType::kNull || b == ValueType::kNull) {
    return (a == ValueType::kNull ? 0 : 1) - (b == ValueType::kNull ? 0 : 1);
  }
  bool a_num = a == ValueType::kInt || a == ValueType::kReal;
  bool b_num = b == ValueType::kInt || b == ValueType::kReal;
  if (a_num && b_num) {
    if (a == ValueType::kInt && b == ValueType::kInt) {
      int64_t x = AsInt(), y = other.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a == ValueType::kInt ? static_cast<double>(AsInt()) : AsReal();
    double y = b == ValueType::kInt ? static_cast<double>(other.AsInt())
                                    : other.AsReal();
    return Sign(x - y);
  }
  if (a != b) {
    return static_cast<int>(a) < static_cast<int>(b) ? -1 : 1;
  }
  switch (a) {
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kDate: {
      int64_t x = AsDate().ToEpochDays(), y = other.AsDate().ToEpochDays();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default:
      return 0;
  }
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

size_t HashString(std::string_view text) {
  return std::hash<std::string_view>{}(text);
}

std::optional<size_t> HashValue(const Value& value) {
  double number = 0.0;
  switch (value.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kString:
      return HashString(value.AsString());
    case ValueType::kDate:
      return std::hash<int64_t>{}(value.AsDate().ToEpochDays());
    case ValueType::kInt:
      number = static_cast<double>(value.AsInt());
      break;
    case ValueType::kReal:
      number = value.AsReal();
      if (std::isnan(number)) return std::nullopt;
      break;
  }
  return number == 0.0 ? 0 : std::hash<double>{}(number);  // -0.0 == 0.0
}

}  // namespace iqs
