#ifndef IQS_INFERENCE_INTENSIONAL_ANSWER_H_
#define IQS_INFERENCE_INTENSIONAL_ANSWER_H_

#include <optional>
#include <string>
#include <vector>

#include "inference/fact.h"

namespace iqs {

// Containment direction of an intensional statement relative to the
// extensional answer (paper §4): forward inference characterizes a set
// *containing* the extensional answer; backward inference characterizes a
// set *contained in* it.
enum class AnswerDirection {
  kContains,     // forward: description ⊇ extensional answer
  kContainedIn,  // backward: description ⊆ extensional answer
};

const char* AnswerDirectionName(AnswerDirection direction);

// One derived characterization: a conjunction of facts plus provenance.
struct IntensionalStatement {
  AnswerDirection direction = AnswerDirection::kContains;
  std::vector<Fact> facts;
  std::vector<int> rule_ids;

  // For backward (kContainedIn) statements: the fact the description was
  // derived from, and whether the subset claim is exact with respect to
  // the whole query (true when the target is equivalent to the full query
  // condition) or only relative to the target fact (the approximation the
  // paper's Example 3 makes when backward-chaining from forward-derived
  // facts).
  Fact target;
  bool exact = true;

  // "answers ⊆ { x isa SSBN }  (by R9)".
  std::string ToString() const;
};

// The intensional answer to a query: forward statement(s), backward
// statement(s), or both when inference modes are combined.
class IntensionalAnswer {
 public:
  IntensionalAnswer() = default;

  void Add(IntensionalStatement statement) {
    statements_.push_back(std::move(statement));
  }
  void Reserve(size_t statements) { statements_.reserve(statements); }

  bool empty() const { return statements_.empty(); }
  size_t size() const { return statements_.size(); }
  const std::vector<IntensionalStatement>& statements() const {
    return statements_;
  }

  // Statements in the given direction.
  std::vector<const IntensionalStatement*> InDirection(
      AnswerDirection direction) const;

  // All type facts asserted by forward statements (what the answers *are*).
  std::vector<std::string> ForwardTypes() const;

  // Set when the forward facts are mutually unsatisfiable: the answer is
  // provably empty and the string explains why.
  const std::optional<std::string>& empty_proof() const {
    return empty_proof_;
  }
  void set_empty_proof(std::string explanation) {
    empty_proof_ = std::move(explanation);
  }

  std::string ToString() const;

 private:
  std::vector<IntensionalStatement> statements_;
  std::optional<std::string> empty_proof_;
};

}  // namespace iqs

#endif  // IQS_INFERENCE_INTENSIONAL_ANSWER_H_
