#ifndef IQS_INFERENCE_ENGINE_H_
#define IQS_INFERENCE_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "dictionary/data_dictionary.h"
#include "fault/degrade.h"
#include "inference/intensional_answer.h"

namespace iqs {

// Which type inference to run (paper §4): forward (modus ponens; derives
// a description containing the extensional answer), backward (derives
// descriptions contained in it), or both combined.
enum class InferenceMode {
  kForward,
  kBackward,
  kCombined,
};

const char* InferenceModeName(InferenceMode mode);

// What the inference engine needs to know about a query: its restriction
// conditions (qualified attribute names, interval form) and the object
// types it ranges over. Join conditions are not included — they define
// the view, not the restriction.
struct QueryDescription {
  std::vector<Clause> conditions;
  std::vector<std::string> object_types;

  std::string ToString() const;
};

// The inference processor (paper §5.1): derives intensional answers by
// traversing the type hierarchies using the rules in the data dictionary.
class InferenceEngine {
 public:
  // `dictionary` must outlive the engine.
  explicit InferenceEngine(const DataDictionary* dictionary)
      : dictionary_(dictionary) {}

  // Forward inference to fixpoint. Returns every fact holding for each
  // tuple of the answer: the seeded query conditions, rule consequents
  // whose LHS subsumes known facts (after active-domain clipping), the
  // supertype closure, and derivation expansions of type facts. Rounds
  // are semi-naive: each tests only the not yet matched rules that the
  // rule set indexes under an attribute which gained a range fact in the
  // previous round, and fires the ones that match in rule order. A rule
  // whose firing faults (the "infer.match" failpoint) is skipped and
  // logged, and not retried in a later round; when `degradations` is
  // non-null one summary event per run is appended for the skipped rules.
  Result<std::vector<Fact>> Forward(
      const QueryDescription& query, const RuleSet& rules,
      std::vector<fault::DegradationEvent>* degradations = nullptr) const;

  // Backward inference: for each fact in `targets`, finds rules whose RHS
  // implies the fact and emits their LHS as a contained-in description,
  // one statement per rule, in order of the first target each rule
  // implies. A rule implying several targets cites an exact one first,
  // then a type fact, then the earliest. Statements are exact when the
  // target was seeded from the single query condition; approximate
  // otherwise.
  Result<std::vector<IntensionalStatement>> Backward(
      const QueryDescription& query, const std::vector<Fact>& targets,
      const RuleSet& rules) const;

  // Runs the requested mode against the dictionary's induced rules (the
  // paper's configuration).
  Result<IntensionalAnswer> Infer(
      const QueryDescription& query, InferenceMode mode,
      std::vector<fault::DegradationEvent>* degradations = nullptr) const;

  // Same, against an explicit rule set (lets the baseline run with the
  // declared integrity constraints only).
  Result<IntensionalAnswer> InferWith(
      const QueryDescription& query, InferenceMode mode,
      const RuleSet& rules,
      std::vector<fault::DegradationEvent>* degradations = nullptr) const;

  // Checks the forward facts for mutual unsatisfiability: two range
  // facts over the same attribute whose intervals do not intersect (the
  // expansion of disjoint subtype derivations reduces type conflicts
  // like "x isa SSN and x isa SSBN" to this). A returned explanation
  // proves the answer set empty — no tuple can satisfy all facts.
  std::optional<std::string> DetectContradiction(
      const std::vector<Fact>& facts) const;

 private:
  // Facts directly readable off the query: each condition as a range
  // fact; type facts where a condition matches a subtype derivation.
  std::vector<Fact> SeedFacts(const QueryDescription& query) const;

  // Adds supertype-closure and derivation-expansion facts for any type
  // facts in `facts`; returns whether anything was added.
  bool ExpandTypeFacts(std::vector<Fact>* facts) const;

  const DataDictionary* dictionary_;
};

}  // namespace iqs

#endif  // IQS_INFERENCE_ENGINE_H_
