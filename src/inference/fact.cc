#include "inference/fact.h"

#include "common/string_util.h"

namespace iqs {

Fact Fact::Type(std::string variable, std::string type_name,
                std::vector<int> rule_ids, Origin origin) {
  Fact f;
  f.kind = Kind::kType;
  f.variable = std::move(variable);
  f.type_name = std::move(type_name);
  f.rule_ids = std::move(rule_ids);
  f.origin = origin;
  return f;
}

Fact Fact::Range(Clause clause, std::vector<int> rule_ids, Origin origin) {
  Fact f;
  f.kind = Kind::kRange;
  f.clause = std::move(clause);
  f.rule_ids = std::move(rule_ids);
  f.origin = origin;
  return f;
}

bool Fact::SameContent(const Fact& other) const {
  if (kind != other.kind) return false;
  if (kind == Kind::kType) {
    // Same type; roles compare by root entity when known (variable
    // letters are context-local), by variable otherwise.
    if (!EqualsIgnoreCase(type_name, other.type_name)) return false;
    if (!root_entity.empty() && !other.root_entity.empty()) {
      return EqualsIgnoreCase(root_entity, other.root_entity);
    }
    return EqualsIgnoreCase(variable, other.variable);
  }
  return EqualsIgnoreCase(clause.attribute(), other.clause.attribute()) &&
         clause.interval() == other.clause.interval();
}

std::string Fact::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Fact::AppendTo(std::string* out) const {
  AppendContentTo(out);
  if (rule_ids.empty()) return;
  out->append("  [");
  for (size_t i = 0; i < rule_ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->push_back('R');
    out->append(std::to_string(rule_ids[i]));
  }
  out->push_back(']');
}

void Fact::AppendContentTo(std::string* out) const {
  if (kind == Kind::kType) {
    out->append(variable).append(" isa ").append(type_name);
  } else {
    clause.AppendConditionTo(out);
  }
}

bool AddFact(std::vector<Fact>* facts, Fact fact) {
  for (const Fact& existing : *facts) {
    if (existing.SameContent(fact)) return false;
  }
  facts->push_back(std::move(fact));
  return true;
}

}  // namespace iqs
