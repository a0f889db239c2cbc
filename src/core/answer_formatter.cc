#include "core/answer_formatter.h"

#include "common/string_util.h"
#include "fault/degrade.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iqs {

namespace {

// Renders a clause with the attribute's base name (qualifiers read poorly
// in prose).
std::string ClauseProse(const Clause& clause) {
  Clause bare(clause.BaseAttribute(), clause.interval());
  return bare.ToConditionString();
}

std::string JoinWithAnd(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += " and ";
    out += parts[i];
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::string, std::string>>
AnswerFormatter::MostSpecificTypes(const IntensionalAnswer& answer) const {
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  // (role key, type) pairs; the role key is the root entity when known.
  std::vector<std::pair<std::string, std::string>> types;
  for (const IntensionalStatement& s : answer.statements()) {
    if (s.direction != AnswerDirection::kContains) continue;
    for (const Fact& f : s.facts) {
      if (f.kind != Fact::Kind::kType) continue;
      std::string role = f.root_entity.empty() ? f.variable : f.root_entity;
      bool seen = false;
      for (const auto& [existing_role, existing_type] : types) {
        if (EqualsIgnoreCase(existing_role, role) &&
            EqualsIgnoreCase(existing_type, f.type_name)) {
          seen = true;
          break;
        }
      }
      if (!seen) types.emplace_back(role, f.type_name);
    }
  }
  // Drop entries that are proper supertypes of another entry in the same
  // role.
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [role, type] : types) {
    bool dominated = false;
    for (const auto& [other_role, other_type] : types) {
      if (!EqualsIgnoreCase(role, other_role)) continue;
      if (EqualsIgnoreCase(type, other_type)) continue;
      auto supers = hierarchy.SupertypesOf(other_type);
      if (!supers.ok()) continue;
      for (const std::string& super : *supers) {
        if (EqualsIgnoreCase(super, type)) {
          dominated = true;
          break;
        }
      }
      if (dominated) break;
    }
    if (!dominated) out.emplace_back(role, type);
  }
  return out;
}

std::string AnswerFormatter::Summary(const QueryResult& result) const {
  const IntensionalAnswer& answer = result.intensional;
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  if (answer.empty_proof().has_value()) {
    return "The answer is provably empty: " + *answer.empty_proof();
  }
  if (answer.empty()) {
    return "No intensional answer could be derived for this query.";
  }
  std::vector<std::pair<std::string, std::string>> types =
      MostSpecificTypes(answer);

  // The primary role is the first FROM object type whose hierarchy root
  // actually carries derived type facts (Example 1/3: SUBMARINE); when
  // none does — e.g. a query over CLASS alone, whose facts root at
  // SUBMARINE — the first derived role is primary.
  std::string primary_root;
  for (const std::string& object_type : result.description.object_types) {
    auto root = hierarchy.RootOf(object_type);
    if (!root.ok()) continue;
    for (const auto& [role, type] : types) {
      if (EqualsIgnoreCase(role, *root)) {
        primary_root = *root;
        break;
      }
    }
    if (!primary_root.empty()) break;
  }
  if (primary_root.empty() && !types.empty()) {
    primary_root = types.front().first;
  }
  std::vector<std::string> primary;
  std::vector<std::string> secondary;
  for (const auto& [role, type] : types) {
    bool is_primary = primary_root.empty()
                          ? primary.empty()
                          : EqualsIgnoreCase(role, primary_root);
    (is_primary ? primary : secondary).push_back(type);
  }
  bool has_forward_types = !types.empty();

  // Attributes that classification hinges on (appearing in some subtype's
  // derivation specification) — preferred in backward descriptions, the
  // way the paper surfaces class ranges rather than hull-number ranges.
  std::vector<std::string> classification_attrs;
  for (const std::string& type_name : hierarchy.AllTypes()) {
    auto node = hierarchy.Get(type_name);
    if (!node.ok() || !(*node)->derivation.has_value()) continue;
    classification_attrs.push_back((*node)->derivation->BaseAttribute());
  }
  auto is_classification_attr = [&](const Clause& clause) {
    const std::string base = clause.BaseAttribute();
    for (const std::string& attr : classification_attrs) {
      if (EqualsIgnoreCase(attr, base)) return true;
    }
    return false;
  };

  // Pick the backward statement to surface. Exact statements always
  // qualify. When forward types are present (combined answers), an
  // approximate statement qualifies only if it characterizes via a fact
  // about a *secondary* role (the paper's Example 3: class range over the
  // submarines, target "y isa BQS"); that keeps pure-forward answers like
  // Example 1 clean. Among eligible statements prefer classification
  // attributes, then exactness, then rule order.
  const IntensionalStatement* backward = nullptr;
  bool backward_cls = false;
  for (const IntensionalStatement& s : answer.statements()) {
    if (s.direction != AnswerDirection::kContainedIn) continue;
    bool eligible;
    if (s.exact || !has_forward_types) {
      eligible = true;
    } else {
      eligible = s.target.kind == Fact::Kind::kType &&
                 !primary_root.empty() && !s.target.root_entity.empty() &&
                 !EqualsIgnoreCase(s.target.root_entity, primary_root);
    }
    if (!eligible) continue;
    bool cls = !s.facts.empty() && is_classification_attr(s.facts[0].clause);
    bool better = backward == nullptr ||
                  (cls != backward_cls ? cls : s.exact && !backward->exact);
    if (better) {
      backward = &s;
      backward_cls = cls;
    }
  }

  // Original query conditions in prose.
  std::vector<std::string> condition_prose;
  for (const Clause& c : result.description.conditions) {
    condition_prose.push_back(ClauseProse(c));
  }

  std::string out;
  if (has_forward_types && backward != nullptr) {
    // Combined: "Ship type SSN with 0208 <= Class <= 0215 is equipped
    // with Sonar = BQS-04."
    out = options_.entity_noun + " type " + JoinWithAnd(primary);
    std::vector<std::string> lhs_prose;
    for (const Fact& f : backward->facts) {
      if (f.kind == Fact::Kind::kRange) {
        lhs_prose.push_back(ClauseProse(f.clause));
      }
    }
    if (!lhs_prose.empty()) out += " with " + JoinWithAnd(lhs_prose);
    if (!condition_prose.empty()) {
      out += !secondary.empty()
                 ? " " + options_.relationship_phrase + " "
                 : " satisfies ";
      out += JoinWithAnd(condition_prose);
    }
    out += ".";
  } else if (has_forward_types) {
    // Forward only: "Ship type SSBN has Displacement > 8000."
    out = options_.entity_noun + " type " + JoinWithAnd(primary);
    if (!secondary.empty()) {
      out += " (" + options_.relationship_phrase + " type " +
             JoinWithAnd(secondary) + ")";
    }
    if (!condition_prose.empty()) {
      out += " has " + JoinWithAnd(condition_prose);
    }
    out += ".";
  } else if (backward != nullptr) {
    // Backward only: "Ships with 0101 <= Class <= 0103 are SSBN."
    std::vector<std::string> lhs_prose;
    for (const Fact& f : backward->facts) {
      if (f.kind == Fact::Kind::kRange) {
        lhs_prose.push_back(ClauseProse(f.clause));
      }
    }
    out = options_.entity_noun + "s with " + JoinWithAnd(lhs_prose);
    if (backward->target.kind == Fact::Kind::kType) {
      out += " are " + backward->target.type_name;
    } else {
      out += " satisfy " + ClauseProse(backward->target.clause);
    }
    if (!backward->exact) out += " (partial answer)";
    out += ".";
  } else {
    out = "The derived intensional statements do not name a type.";
  }
  return out;
}

std::string AnswerFormatter::Render(const QueryResult& result) const {
  IQS_SPAN("format.render");
  IQS_COUNTER_INC("format.render.count");
  // A query served without its intensional half says so instead of
  // pretending nothing could be derived; lesser degradations (skipped
  // rules, absorbed retries) annotate below the statements.
  bool extensional_only = false;
  for (const fault::DegradationEvent& e : result.degradations) {
    if (e.action == fault::DegradeAction::kExtensionalOnly) {
      extensional_only = true;
      break;
    }
  }
  const std::vector<IntensionalStatement>& statements =
      result.intensional.statements();
  // One buffer for the whole rendering; a statement line runs about 70
  // bytes on the fleet answers, and growth covers longer ones.
  std::string out;
  out.reserve(256 + 72 * statements.size());
  if (extensional_only) {
    for (const fault::DegradationEvent& e : result.degradations) {
      if (e.action != fault::DegradeAction::kExtensionalOnly) continue;
      out.append("intensional unavailable: ")
          .append(e.reason)
          .append(" [")
          .append(e.stage)
          .append("]\n");
    }
  } else {
    out.append(Summary(result)).push_back('\n');
  }
  for (const IntensionalStatement& s : statements) {
    out.append("  ");
    s.AppendTo(&out);
    if (s.direction == AnswerDirection::kContainedIn && !s.exact) {
      out.append("  [approximate]");
    }
    out.push_back('\n');
  }
  for (const RewriteStep& step : result.rewrites) {
    out.append("  rewrite: ").append(step.ToString()).push_back('\n');
  }
  for (const fault::DegradationEvent& e : result.degradations) {
    if (e.action == fault::DegradeAction::kExtensionalOnly) continue;
    out.append("  degraded: ").append(e.ToString()).push_back('\n');
  }
  return out;
}

}  // namespace iqs
