#include "inference/engine.h"

#include <algorithm>
#include <chrono>

#include "common/string_util.h"
#include "exec/exec_context.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/subsumption.h"

namespace iqs {

const char* InferenceModeName(InferenceMode mode) {
  switch (mode) {
    case InferenceMode::kForward:
      return "forward";
    case InferenceMode::kBackward:
      return "backward";
    case InferenceMode::kCombined:
      return "combined";
  }
  return "unknown";
}

std::string QueryDescription::ToString() const {
  std::string out = "over {" + Join(object_types, ", ") + "} where ";
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (i > 0) out += " and ";
    out += conditions[i].ToConditionString();
  }
  if (conditions.empty()) out += "true";
  return out;
}

namespace {

// Role variable for a fact derived from a clause: the qualifier when it
// looks like a role variable ("y.Sonar"), else the generic "x".
std::string VariableFor(const Clause& clause) {
  std::string qualifier = clause.Qualifier();
  return (!qualifier.empty() && qualifier.size() <= 2) ? qualifier : "x";
}

// A type fact with the role identified by its hierarchy root.
Fact TypeFactFor(const TypeHierarchy& hierarchy, std::string variable,
                 const std::string& type_name, std::vector<int> rule_ids,
                 Fact::Origin origin) {
  Fact f = Fact::Type(std::move(variable), type_name, std::move(rule_ids),
                      origin);
  auto root = hierarchy.RootOf(type_name);
  if (root.ok()) f.root_entity = *root;
  return f;
}

}  // namespace

std::vector<Fact> InferenceEngine::SeedFacts(
    const QueryDescription& query) const {
  std::vector<Fact> facts;
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  for (const Clause& condition : query.conditions) {
    AddFact(&facts, Fact::Range(condition));
    auto type_name = hierarchy.FindByDerivation(condition);
    if (type_name.ok()) {
      AddFact(&facts, TypeFactFor(hierarchy, VariableFor(condition),
                                  *type_name, {}, Fact::Origin::kSeed));
    }
  }
  return facts;
}

bool InferenceEngine::ExpandTypeFacts(std::vector<Fact>* facts) const {
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  bool changed = false;
  // Iterate over indices: AddFact may grow the vector.
  for (size_t i = 0; i < facts->size(); ++i) {
    if ((*facts)[i].kind != Fact::Kind::kType) continue;
    const std::string variable = (*facts)[i].variable;
    const std::string type_name = (*facts)[i].type_name;
    const std::vector<int> provenance = (*facts)[i].rule_ids;
    auto supers = hierarchy.SupertypesOf(type_name);
    if (supers.ok()) {
      for (const std::string& super : *supers) {
        changed |= AddFact(facts,
                           TypeFactFor(hierarchy, variable, super, provenance,
                                       Fact::Origin::kHierarchy));
      }
    }
    auto node = hierarchy.Get(type_name);
    if (node.ok() && (*node)->derivation.has_value()) {
      changed |= AddFact(facts, Fact::Range(*(*node)->derivation, provenance,
                                            Fact::Origin::kHierarchy));
    }
  }
  return changed;
}

Result<std::vector<Fact>> InferenceEngine::Forward(
    const QueryDescription& query, const RuleSet& rules,
    std::vector<fault::DegradationEvent>* degradations) const {
  IQS_SPAN("infer.forward");
  std::vector<Fact> facts = SeedFacts(query);
  ExpandTypeFacts(&facts);

  const std::vector<AttributeDomain>& domains =
      dictionary_->active_domains();
  const std::vector<Rule>& all_rules = rules.rules();
  // Every range fact known at the start of the round, clipped to its
  // attribute's active domain once (facts are only ever appended).
  std::vector<Clause> known;
  // Semi-naive rounds: a rule is tested only while unmatched, and only in
  // a round after one of its LHS attributes gained a range fact. Facts
  // only grow, so a rule that matched stays matched, and one whose LHS
  // attributes gained nothing cannot newly match.
  std::vector<char> matched(all_rules.size(), 0);
  std::vector<size_t> candidates;
  size_t clipped = 0;  // facts[0, clipped) are in `known`
  bool changed = true;
  int iterations = 0;
  uint64_t considered = 0;
  uint64_t skipped_firings = 0;
  std::string skip_reason;
  while (changed) {
    if (++iterations > 64) {
      return Status::Internal("forward inference did not reach a fixpoint");
    }
    // One governance checkpoint per fixpoint pass; a cancelled inference
    // unwinds here and QueryProcessor degrades the answer to
    // extensional-only rather than failing the query.
    IQS_GOV_CHECKPOINT("infer.fire");
    changed = false;
    candidates.clear();
    for (; clipped < facts.size(); ++clipped) {
      if (facts[clipped].kind != Fact::Kind::kRange) continue;
      const Clause& clause = facts[clipped].clause;
      const AttributeDomain* domain = FindDomain(domains, clause.attribute());
      known.push_back(domain == nullptr
                          ? clause
                          : Clause(clause.attribute(),
                                   clause.interval().ClipTo(domain->lo,
                                                            domain->hi)));
      for (size_t position : rules.WithLhsOn(clause.attribute())) {
        if (!matched[position]) candidates.push_back(position);
      }
    }
    // Rule order, so facts are derived in the same order as a full pass
    // over the rules would derive them.
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    considered += candidates.size();
    // Matching reads only `known`, the facts at the start of the round;
    // firing appends to `facts`, which the next round picks up.
    for (size_t k = 0; k < candidates.size(); ++k) {
      if ((k & 63) == 0) IQS_GOV_CHECKPOINT("infer.match");
      const Rule& rule = all_rules[candidates[k]];
      if (!LhsSubsumesConditions(rule, known, {}, AttributeMatch::kBaseName)) {
        continue;
      }
      matched[candidates[k]] = 1;
      // Skip-and-log: a faulting rule firing is dropped, the rest of the
      // fixpoint continues. The rule has matched, so no later round
      // retries it.
      if (Status fp = fault::Hit("infer.match"); !fp.ok()) {
        ++skipped_firings;
        skip_reason = fp.message();
        IQS_COUNTER_INC("infer.forward.skipped_firings");
        continue;
      }
      IQS_COUNTER_INC("infer.forward.firings");
      // Modus ponens: the consequent holds of every answer tuple.
      if (!StartsWith(rule.rhs.clause.attribute(), "isa(")) {
        changed |= AddFact(&facts, Fact::Range(rule.rhs.clause, {rule.id},
                                               Fact::Origin::kRule));
      }
      if (rule.rhs.HasIsaReading()) {
        changed |= AddFact(
            &facts,
            TypeFactFor(dictionary_->catalog().hierarchy(),
                        rule.rhs.isa_variable, rule.rhs.isa_type, {rule.id},
                        Fact::Origin::kRule));
      }
    }
    changed |= ExpandTypeFacts(&facts);
  }
  IQS_COUNTER_ADD("infer.forward.iterations", iterations);
  IQS_SPAN_ANNOTATE("facts", static_cast<int64_t>(facts.size()));
  IQS_SPAN_ANNOTATE("iterations", static_cast<int64_t>(iterations));
  IQS_SPAN_ANNOTATE("rules_considered", static_cast<int64_t>(considered));
  if (skipped_firings > 0) {
    fault::DegradationEvent event{
        "rule-match", fault::DegradeAction::kSkipRule,
        "skipped " + std::to_string(skipped_firings) + " rule firing" +
            (skipped_firings == 1 ? "" : "s") + ": " + skip_reason};
    fault::RecordDegradation(event);
    if (degradations != nullptr) degradations->push_back(std::move(event));
  }
  return facts;
}

namespace {

// Positions, in rule order, of the rules whose consequent guarantees
// `target`: for a type target, those concluding the target type or one of
// its subtypes (one hierarchy test per distinct isa type); for a range
// target, those whose RHS interval over the same attribute lies inside
// the target's.
std::vector<size_t> RulesImplying(const RuleSet& rules, const Fact& target,
                                  const TypeHierarchy& hierarchy) {
  std::vector<size_t> out;
  if (target.kind == Fact::Kind::kType) {
    // Role letters are context-local; membership in the same hierarchy
    // (enforced by the subtype test) identifies the role.
    for (const auto& [isa_type, positions] : rules.by_isa_type()) {
      if (hierarchy.IsAOrSubtypeOf(isa_type, target.type_name)) {
        out.insert(out.end(), positions.begin(), positions.end());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  for (size_t position : rules.WithRhsOn(target.clause.attribute())) {
    if (target.clause.interval().ContainsInterval(
            rules.rule(position).rhs.clause.interval())) {
      out.push_back(position);
    }
  }
  return out;
}

// Which of two targets a rule's backward statement should cite: an exact
// target first, then a type fact (more informative than the equivalent
// range fact); on a tie the earlier target stays.
bool BetterTarget(const Fact& a, bool a_exact, const Fact& b, bool b_exact) {
  if (a_exact != b_exact) return a_exact;
  if (a.kind != b.kind) return a.kind == Fact::Kind::kType;
  return false;
}

}  // namespace

Result<std::vector<IntensionalStatement>> InferenceEngine::Backward(
    const QueryDescription& query, const std::vector<Fact>& targets,
    const RuleSet& rules) const {
  IQS_SPAN("infer.backward");
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  // Facts read directly off the query (used to decide exactness).
  std::vector<Fact> seeds = SeedFacts(query);
  auto is_seed = [&seeds](const Fact& f) {
    for (const Fact& s : seeds) {
      if (s.SameContent(f)) return true;
    }
    return false;
  };
  // A backward statement is exact when its target covers the whole query
  // restriction: the target is a seed fact and the query has a single
  // restriction condition.
  bool single_condition = query.conditions.size() == 1;

  // The same rule often implies several targets (a type fact and its
  // derivation range fact); each rule keeps the one target it cites.
  constexpr size_t kNoTarget = static_cast<size_t>(-1);
  std::vector<size_t> cited(rules.size(), kNoTarget);
  std::vector<char> exact(targets.size(), 0);
  std::vector<size_t> order;  // rule positions, first occurrence first
  uint64_t firings = 0;
  for (size_t t = 0; t < targets.size(); ++t) {
    IQS_GOV_CHECKPOINT("infer.match");
    exact[t] = single_condition && is_seed(targets[t]);
    for (size_t position : RulesImplying(rules, targets[t], hierarchy)) {
      if (rules.rule(position).lhs.empty()) continue;
      ++firings;
      size_t& slot = cited[position];
      if (slot == kNoTarget) {
        slot = t;
        order.push_back(position);
      } else if (BetterTarget(targets[t], exact[t], targets[slot],
                              exact[slot])) {
        slot = t;
      }
    }
  }

  std::vector<IntensionalStatement> out;
  out.reserve(order.size());
  for (size_t position : order) {
    const Rule& rule = rules.rule(position);
    IntensionalStatement& statement = out.emplace_back();
    statement.direction = AnswerDirection::kContainedIn;
    statement.facts.reserve(rule.lhs.size());
    for (const Clause& c : rule.lhs) {
      statement.facts.push_back(Fact::Range(c, {rule.id}));
    }
    statement.rule_ids = {rule.id};
    statement.target = targets[cited[position]];
    statement.exact = exact[cited[position]];
  }
  IQS_COUNTER_ADD("infer.backward.firings", firings);
  IQS_COUNTER_ADD("infer.backward.subsumption_eliminated",
                  firings - out.size());
  IQS_SPAN_ANNOTATE("statements", static_cast<int64_t>(out.size()));
  return out;
}

std::optional<std::string> InferenceEngine::DetectContradiction(
    const std::vector<Fact>& facts) const {
  for (size_t i = 0; i < facts.size(); ++i) {
    if (facts[i].kind != Fact::Kind::kRange) continue;
    for (size_t j = i + 1; j < facts.size(); ++j) {
      if (facts[j].kind != Fact::Kind::kRange) continue;
      const Clause& a = facts[i].clause;
      const Clause& b = facts[j].clause;
      if (!SameAttribute(a.attribute(), b.attribute(),
                         AttributeMatch::kBaseName)) {
        continue;
      }
      // Only comparable domains can conflict.
      bool comparable = true;
      for (const std::optional<Value>* bound :
           {&a.interval().lo(), &a.interval().hi()}) {
        if (!bound->has_value()) continue;
        for (const std::optional<Value>* other :
             {&b.interval().lo(), &b.interval().hi()}) {
          if (other->has_value() && !(*bound)->ComparableWith(**other)) {
            comparable = false;
          }
        }
      }
      if (!comparable) continue;
      if (!a.interval().Intersects(b.interval())) {
        return "facts '" + facts[i].ToString() + "' and '" +
               facts[j].ToString() +
               "' cannot hold together; the answer is provably empty";
      }
    }
  }
  return std::nullopt;
}

Result<IntensionalAnswer> InferenceEngine::Infer(
    const QueryDescription& query, InferenceMode mode,
    std::vector<fault::DegradationEvent>* degradations) const {
  // Hold a snapshot so a concurrent re-induction cannot swap the rule
  // base out from under the inference pass.
  std::shared_ptr<const RuleSet> rules = dictionary_->induced_rules_snapshot();
  return InferWith(query, mode, *rules, degradations);
}

Result<IntensionalAnswer> InferenceEngine::InferWith(
    const QueryDescription& query, InferenceMode mode, const RuleSet& rules,
    std::vector<fault::DegradationEvent>* degradations) const {
  IQS_SPAN("infer");
  IQS_FAILPOINT("infer.fire");
  IQS_SPAN_ANNOTATE("mode", std::string(InferenceModeName(mode)));
  IQS_COUNTER_INC("infer.count");
  auto start = std::chrono::steady_clock::now();
  IntensionalAnswer answer;
  std::vector<Fact> forward_facts;
  if (mode == InferenceMode::kForward || mode == InferenceMode::kCombined) {
    IQS_ASSIGN_OR_RETURN(forward_facts, Forward(query, rules, degradations));
    if (auto contradiction = DetectContradiction(forward_facts);
        contradiction.has_value()) {
      answer.set_empty_proof(std::move(*contradiction));
    }
    // Report only derived facts (with provenance) or seeded type facts —
    // echoing the query's own range conditions back is not informative.
    IntensionalStatement statement;
    statement.direction = AnswerDirection::kContains;
    for (const Fact& f : forward_facts) {
      if (f.rule_ids.empty() && f.kind == Fact::Kind::kRange) continue;
      statement.facts.push_back(f);
      for (int id : f.rule_ids) {
        bool seen = false;
        for (int existing : statement.rule_ids) {
          if (existing == id) {
            seen = true;
            break;
          }
        }
        if (!seen) statement.rule_ids.push_back(id);
      }
    }
    if (!statement.facts.empty()) answer.Add(std::move(statement));
  }
  if (mode == InferenceMode::kBackward || mode == InferenceMode::kCombined) {
    std::vector<Fact> targets;
    if (mode == InferenceMode::kBackward) {
      targets = SeedFacts(query);
    } else {
      // Hierarchy-closure facts (e.g. "x isa SUBMARINE") hold of every
      // answer but are too weak to back-chain from: any rule about any
      // submarine would spuriously "characterize a subset".
      for (const Fact& f : forward_facts) {
        if (f.origin != Fact::Origin::kHierarchy) targets.push_back(f);
      }
    }
    IQS_ASSIGN_OR_RETURN(std::vector<IntensionalStatement> statements,
                         Backward(query, targets, rules));
    answer.Reserve(answer.size() + statements.size());
    for (IntensionalStatement& s : statements) {
      answer.Add(std::move(s));
    }
  }
  if (answer.empty_proof().has_value()) {
    IQS_COUNTER_INC("infer.contradictions");
  }
  IQS_HISTOGRAM_OBSERVE(
      "infer.micros",
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return answer;
}

}  // namespace iqs
