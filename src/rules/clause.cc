#include "rules/clause.h"

namespace iqs {

Clause Clause::Equals(std::string attribute, Value value) {
  return Clause(std::move(attribute), Interval::Point(std::move(value)));
}

Result<Clause> Clause::Range(std::string attribute, Value lo, Value hi) {
  IQS_ASSIGN_OR_RETURN(Interval interval,
                       Interval::Closed(std::move(lo), std::move(hi)));
  return Clause(std::move(attribute), std::move(interval));
}

std::string Clause::BaseAttribute() const {
  size_t pos = attribute_.rfind('.');
  if (pos == std::string::npos) return attribute_;
  return attribute_.substr(pos + 1);
}

std::string Clause::Qualifier() const {
  size_t pos = attribute_.rfind('.');
  if (pos == std::string::npos) return "";
  return attribute_.substr(0, pos);
}

std::string Clause::ToTripleString() const {
  std::string lo =
      interval_.lo().has_value() ? interval_.lo()->ToString() : "-inf";
  std::string hi =
      interval_.hi().has_value() ? interval_.hi()->ToString() : "+inf";
  return "(" + lo + ", " + attribute_ + ", " + hi + ")";
}

std::string Clause::ToConditionString() const {
  std::string out;
  AppendConditionTo(&out);
  return out;
}

void Clause::AppendConditionTo(std::string* out) const {
  const Interval& iv = interval_;
  if (iv.IsPoint()) {
    out->append(attribute_).append(" = ").append(iv.lo()->ToString());
  } else if (iv.lo().has_value() && iv.hi().has_value()) {
    out->append(iv.lo()->ToString())
        .append(iv.lo_open() ? " < " : " <= ")
        .append(attribute_)
        .append(iv.hi_open() ? " < " : " <= ")
        .append(iv.hi()->ToString());
  } else if (iv.lo().has_value()) {
    out->append(attribute_)
        .append(iv.lo_open() ? " > " : " >= ")
        .append(iv.lo()->ToString());
  } else if (iv.hi().has_value()) {
    out->append(attribute_)
        .append(iv.hi_open() ? " < " : " <= ")
        .append(iv.hi()->ToString());
  } else {
    out->append(attribute_).append(" unrestricted");
  }
}

}  // namespace iqs
