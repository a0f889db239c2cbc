#include "rules/rule.h"

#include <algorithm>

#include "common/string_util.h"

namespace iqs {

namespace {

// The lower-cased base name of an attribute ("sonar" for "y.Sonar",
// "INSTALL.Sonar" and "sonar"). Two attributes have the same key exactly
// when they match under AttributeMatch::kBaseName (rules/subsumption.h).
std::string BaseAttributeKey(std::string_view attribute) {
  size_t pos = attribute.rfind('.');
  return ToLower(pos == std::string_view::npos ? attribute
                                               : attribute.substr(pos + 1));
}

const RuleSet::Positions& Lookup(const RuleSet::PositionIndex& index,
                                 std::string_view attribute) {
  static const RuleSet::Positions* const kNone = new RuleSet::Positions();
  auto it = index.find(BaseAttributeKey(attribute));
  return it == index.end() ? *kNone : it->second;
}

}  // namespace

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
  Index(rules_.size() - 1);
}

void RuleSet::Index(size_t position) {
  const Rule& rule = rules_[position];
  for (const Clause& clause : rule.lhs) {
    Positions& list = by_lhs_[BaseAttributeKey(clause.attribute())];
    // Two LHS clauses over one attribute list the rule once.
    if (list.empty() || list.back() != position) list.push_back(position);
  }
  by_rhs_[BaseAttributeKey(rule.rhs.clause.attribute())].push_back(position);
  if (rule.rhs.HasIsaReading()) {
    by_isa_type_[rule.rhs.isa_type].push_back(position);
  }
}

const RuleSet::Positions& RuleSet::WithLhsOn(std::string_view attribute) const {
  return Lookup(by_lhs_, attribute);
}

const RuleSet::Positions& RuleSet::WithRhsOn(std::string_view attribute) const {
  return Lookup(by_rhs_, attribute);
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
  by_lhs_.clear();
  by_rhs_.clear();
  by_isa_type_.clear();
  for (size_t i = 0; i < rules_.size(); ++i) Index(i);
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
