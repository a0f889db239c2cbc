#ifndef IQS_TESTS_INFERENCE_ORACLE_H_
#define IQS_TESTS_INFERENCE_ORACLE_H_

#include <string>
#include <vector>

#include "common/string_util.h"
#include "dictionary/data_dictionary.h"
#include "inference/engine.h"
#include "rules/subsumption.h"

namespace iqs {
namespace testing_util {

// The linear inference that InferenceEngine's indexed, semi-naive one
// replaced, kept as the oracle of the inference differential. Every
// fixpoint round tests every rule (clipping each condition once per rule),
// Backward walks every rule for every target, and InferWith keeps one
// backward statement per rule by comparing each statement's rule_ids
// with every statement kept so far. Faults and governance are left out:
// the oracle answers healthy runs only.
class LinearInference {
 public:
  explicit LinearInference(const DataDictionary* dictionary)
      : dictionary_(dictionary) {}

  Result<std::vector<Fact>> Forward(const QueryDescription& query,
                                    const RuleSet& rules) const {
    std::vector<Fact> facts = SeedFacts(query);
    ExpandTypeFacts(&facts);
    const std::vector<AttributeDomain>& domains =
        dictionary_->active_domains();
    bool changed = true;
    int iterations = 0;
    while (changed) {
      if (++iterations > 64) {
        return Status::Internal("forward inference did not reach a fixpoint");
      }
      changed = false;
      std::vector<Clause> known;
      for (const Fact& f : facts) {
        if (f.kind == Fact::Kind::kRange) known.push_back(f.clause);
      }
      std::vector<char> matched;
      for (const Rule& rule : rules.rules()) {
        matched.push_back(!rule.lhs.empty() &&
                          LhsSubsumesConditions(rule, known, domains,
                                                AttributeMatch::kBaseName));
      }
      for (size_t i = 0; i < rules.size(); ++i) {
        if (!matched[i]) continue;
        const Rule& rule = rules.rule(i);
        if (!StartsWith(rule.rhs.clause.attribute(), "isa(")) {
          changed |= AddFact(&facts, Fact::Range(rule.rhs.clause, {rule.id},
                                                 Fact::Origin::kRule));
        }
        if (rule.rhs.HasIsaReading()) {
          changed |= AddFact(&facts, TypeFactFor(rule.rhs.isa_variable,
                                                 rule.rhs.isa_type, {rule.id},
                                                 Fact::Origin::kRule));
        }
      }
      changed |= ExpandTypeFacts(&facts);
    }
    return facts;
  }

  // Every (target, rule) pair whose RHS implies the target, target-major.
  std::vector<IntensionalStatement> Backward(const QueryDescription& query,
                                             const std::vector<Fact>& targets,
                                             const RuleSet& rules) const {
    std::vector<Fact> seeds = SeedFacts(query);
    auto is_seed = [&seeds](const Fact& f) {
      for (const Fact& s : seeds) {
        if (s.SameContent(f)) return true;
      }
      return false;
    };
    bool single_condition = query.conditions.size() == 1;
    std::vector<IntensionalStatement> out;
    for (const Fact& target : targets) {
      for (const Rule& rule : rules.rules()) {
        if (rule.lhs.empty() || !RhsImplies(rule, target)) continue;
        IntensionalStatement statement;
        statement.direction = AnswerDirection::kContainedIn;
        for (const Clause& c : rule.lhs) {
          statement.facts.push_back(Fact::Range(c, {rule.id}));
        }
        statement.rule_ids = {rule.id};
        statement.target = target;
        statement.exact = single_condition && is_seed(target);
        out.push_back(std::move(statement));
      }
    }
    return out;
  }

  Result<IntensionalAnswer> InferWith(const QueryDescription& query,
                                      InferenceMode mode,
                                      const RuleSet& rules) const {
    IntensionalAnswer answer;
    std::vector<Fact> forward_facts;
    if (mode != InferenceMode::kBackward) {
      IQS_ASSIGN_OR_RETURN(forward_facts, Forward(query, rules));
      if (auto contradiction =
              InferenceEngine(dictionary_).DetectContradiction(forward_facts);
          contradiction.has_value()) {
        answer.set_empty_proof(std::move(*contradiction));
      }
      IntensionalStatement statement;
      statement.direction = AnswerDirection::kContains;
      for (const Fact& f : forward_facts) {
        if (f.rule_ids.empty() && f.kind == Fact::Kind::kRange) continue;
        statement.facts.push_back(f);
        for (int id : f.rule_ids) {
          bool seen = false;
          for (int existing : statement.rule_ids) seen |= existing == id;
          if (!seen) statement.rule_ids.push_back(id);
        }
      }
      if (!statement.facts.empty()) answer.Add(std::move(statement));
    }
    if (mode != InferenceMode::kForward) {
      std::vector<Fact> targets;
      if (mode == InferenceMode::kBackward) {
        targets = SeedFacts(query);
      } else {
        for (const Fact& f : forward_facts) {
          if (f.origin != Fact::Origin::kHierarchy) targets.push_back(f);
        }
      }
      auto better_target = [](const IntensionalStatement& a,
                              const IntensionalStatement& b) {
        if (a.exact != b.exact) return a.exact;
        if (a.target.kind != b.target.kind) {
          return a.target.kind == Fact::Kind::kType;
        }
        return false;
      };
      std::vector<IntensionalStatement> deduped;
      for (IntensionalStatement& s : Backward(query, targets, rules)) {
        bool replaced = false;
        for (IntensionalStatement& existing : deduped) {
          if (existing.rule_ids == s.rule_ids) {
            if (better_target(s, existing)) existing = std::move(s);
            replaced = true;
            break;
          }
        }
        if (!replaced) deduped.push_back(std::move(s));
      }
      for (IntensionalStatement& s : deduped) answer.Add(std::move(s));
    }
    return answer;
  }

 private:
  const TypeHierarchy& hierarchy() const {
    return dictionary_->catalog().hierarchy();
  }

  Fact TypeFactFor(std::string variable, const std::string& type_name,
                   std::vector<int> rule_ids, Fact::Origin origin) const {
    Fact f = Fact::Type(std::move(variable), type_name, std::move(rule_ids),
                        origin);
    auto root = hierarchy().RootOf(type_name);
    if (root.ok()) f.root_entity = *root;
    return f;
  }

  std::vector<Fact> SeedFacts(const QueryDescription& query) const {
    std::vector<Fact> facts;
    for (const Clause& condition : query.conditions) {
      AddFact(&facts, Fact::Range(condition));
      auto type_name = hierarchy().FindByDerivation(condition);
      if (type_name.ok()) {
        std::string qualifier = condition.Qualifier();
        std::string variable =
            (!qualifier.empty() && qualifier.size() <= 2) ? qualifier : "x";
        AddFact(&facts, TypeFactFor(variable, *type_name, {},
                                    Fact::Origin::kSeed));
      }
    }
    return facts;
  }

  bool ExpandTypeFacts(std::vector<Fact>* facts) const {
    bool changed = false;
    for (size_t i = 0; i < facts->size(); ++i) {
      if ((*facts)[i].kind != Fact::Kind::kType) continue;
      const std::string variable = (*facts)[i].variable;
      const std::string type_name = (*facts)[i].type_name;
      const std::vector<int> provenance = (*facts)[i].rule_ids;
      auto supers = hierarchy().SupertypesOf(type_name);
      if (supers.ok()) {
        for (const std::string& super : *supers) {
          changed |= AddFact(facts, TypeFactFor(variable, super, provenance,
                                                Fact::Origin::kHierarchy));
        }
      }
      auto node = hierarchy().Get(type_name);
      if (node.ok() && (*node)->derivation.has_value()) {
        changed |= AddFact(facts, Fact::Range(*(*node)->derivation, provenance,
                                              Fact::Origin::kHierarchy));
      }
    }
    return changed;
  }

  bool RhsImplies(const Rule& rule, const Fact& target) const {
    if (target.kind == Fact::Kind::kType) {
      return rule.rhs.HasIsaReading() &&
             hierarchy().IsAOrSubtypeOf(rule.rhs.isa_type, target.type_name);
    }
    return SameAttribute(rule.rhs.clause.attribute(),
                         target.clause.attribute(),
                         AttributeMatch::kBaseName) &&
           target.clause.interval().ContainsInterval(
               rule.rhs.clause.interval());
  }

  const DataDictionary* dictionary_;
};

}  // namespace testing_util
}  // namespace iqs

#endif  // IQS_TESTS_INFERENCE_ORACLE_H_
