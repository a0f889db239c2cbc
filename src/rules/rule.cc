#include "rules/rule.h"

#include <algorithm>

namespace iqs {

std::string Consequent::ToString() const {
  if (HasIsaReading()) {
    return isa_variable + " isa " + isa_type;
  }
  return clause.ToConditionString();
}

std::string Rule::Body() const {
  std::string out = "if ";
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (i > 0) out += " and ";
    out += lhs[i].ToConditionString();
  }
  out += " then ";
  out += rhs.ToString();
  return out;
}

std::string Rule::ToString() const {
  std::string out = "R" + std::to_string(id) + ": " + Body();
  out += "  [support " + std::to_string(support) + "]";
  return out;
}

void RuleSet::Add(Rule rule) {
  if (rule.id <= 0) {
    rule.id = next_id_;
  }
  next_id_ = std::max(next_id_, rule.id + 1);
  rules_.push_back(std::move(rule));
}

void RuleSet::AddAll(std::vector<Rule> rules) {
  for (Rule& r : rules) Add(std::move(r));
}

size_t RuleSet::Prune(int64_t min_support) {
  size_t before = rules_.size();
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [min_support](const Rule& r) {
                                return r.support < min_support;
                              }),
               rules_.end());
  return before - rules_.size();
}

void RuleSet::Renumber() {
  int id = 1;
  for (Rule& r : rules_) r.id = id++;
  next_id_ = id;
}

std::string RuleSet::ToString() const {
  std::string out;
  for (const Rule& r : rules_) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace iqs
