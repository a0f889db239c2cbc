#ifndef IQS_RULES_RULE_H_
#define IQS_RULES_RULE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rules/clause.h"

namespace iqs {

// The right-hand side of a Horn rule. The ILS always induces an attribute
// clause ("Type = SSBN"); when the KER type hierarchy defines a subtype
// whose derivation specification matches that clause, the dictionary also
// records the isa reading ("x isa SSBN", paper Figure 5), which is what
// type inference traverses.
struct Consequent {
  Clause clause;            // the induced attribute clause (always set)
  std::string isa_type;     // subtype name when the clause matches a
                            // derivation spec; empty otherwise
  std::string isa_variable = "x";  // role variable for the isa reading

  bool HasIsaReading() const { return !isa_type.empty(); }

  // "x isa SSBN" when the isa reading exists, else "Type = SSBN".
  std::string ToString() const;

  friend bool operator==(const Consequent&, const Consequent&) = default;
};

// An induced If-then rule (paper §5.2.2): a conjunction of LHS clauses and
// a single RHS clause (Horn form).
struct Rule {
  int id = 0;                  // stable number within a RuleSet (R1, R2, ...)
  std::string scheme;          // rule scheme "X --> Y", e.g. "Class->Type"
  std::string source_relation; // relation (or join) the rule was induced from
  std::vector<Clause> lhs;
  Consequent rhs;
  int64_t support = 0;         // number of database instances satisfying it
  // True when this rule's family — the rules of the same scheme with the
  // same consequent value — covers EVERY instance with that consequent:
  // no run for the value was pruned and no X value mapping to it was
  // inconsistent. Only then is the converse implication ("Y = y implies
  // X in the union of the family's ranges") sound, which semantic query
  // optimization relies on.
  bool family_complete = false;

  // "R9: if 7250 <= Displacement <= 30000 then x isa SSBN  [support 4]".
  std::string ToString() const;
  // Without the id/support decoration.
  std::string Body() const;

  friend bool operator==(const Rule&, const Rule&) = default;
};

// An ordered collection of rules with stable ids, indexed by the parts
// inference needs. The index lives inside the set, so every copy of a
// rule base carries it: `Add` extends it and `Prune` rebuilds it. Each
// lookup returns rule positions (indices into rules()) in rule order.
class RuleSet {
 public:
  using Positions = std::vector<size_t>;
  using PositionIndex = std::unordered_map<std::string, Positions>;

  RuleSet() = default;

  // Appends, assigning the next id (1-based) unless the rule already has a
  // positive id.
  void Add(Rule rule);
  void AddAll(std::vector<Rule> rules);

  size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }
  const Rule& rule(size_t i) const { return rules_[i]; }
  const std::vector<Rule>& rules() const { return rules_; }

  // Rules with an LHS clause over `attribute`. Attributes compare by base
  // name, case-insensitively, as under AttributeMatch::kBaseName:
  // "y.Sonar", "INSTALL.Sonar" and "sonar" share one list.
  const Positions& WithLhsOn(std::string_view attribute) const;
  // Rules whose RHS clause is over `attribute`, compared the same way.
  const Positions& WithRhsOn(std::string_view attribute) const;
  // Rules with an isa reading, keyed by the isa type as spelled in the
  // consequent.
  const PositionIndex& by_isa_type() const { return by_isa_type_; }

  // Drops rules with support < min_support; returns how many were removed.
  size_t Prune(int64_t min_support);

  // Re-assigns ids 1..n in current order.
  void Renumber();

  std::string ToString() const;

 private:
  // Enters rules_[position] into the three lookup tables.
  void Index(size_t position);

  std::vector<Rule> rules_;
  int next_id_ = 1;
  PositionIndex by_lhs_;  // lower-cased base name of each LHS clause
  PositionIndex by_rhs_;  // lower-cased base name of the RHS clause
  PositionIndex by_isa_type_;
};

}  // namespace iqs

#endif  // IQS_RULES_RULE_H_
