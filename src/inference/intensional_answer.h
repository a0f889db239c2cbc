#ifndef IQS_INFERENCE_INTENSIONAL_ANSWER_H_
#define IQS_INFERENCE_INTENSIONAL_ANSWER_H_

#include <memory>
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
  // Appends ToString()'s text to `out`.
  void AppendTo(std::string* out) const;
};

// The intensional answer to a query: forward statement(s), backward
// statement(s), or both when inference modes are combined.
//
// An answer is a value whose statements live in one shared, immutable
// body: copying an answer shares the body, so the processor, the answer
// cache and every copy of a QueryResult read the same statements without
// copying them. Add, Reserve and set_empty_proof are for the code that
// builds an answer; each first clones a body that another answer still
// shares, so a copy never changes under its other holders.
class IntensionalAnswer {
 public:
  IntensionalAnswer() = default;

  void Add(IntensionalStatement statement) {
    MutableBody().statements.push_back(std::move(statement));
  }
  void Reserve(size_t statements) {
    MutableBody().statements.reserve(statements);
  }

  bool empty() const { return statements().empty(); }
  size_t size() const { return statements().size(); }
  const std::vector<IntensionalStatement>& statements() const;

  // Statements in the given direction.
  std::vector<const IntensionalStatement*> InDirection(
      AnswerDirection direction) const;

  // All type facts asserted by forward statements (what the answers *are*).
  std::vector<std::string> ForwardTypes() const;

  // Set when the forward facts are mutually unsatisfiable: the answer is
  // provably empty and the string explains why.
  const std::optional<std::string>& empty_proof() const;
  void set_empty_proof(std::string explanation) {
    MutableBody().empty_proof = std::move(explanation);
  }

  // One line per statement.
  std::string ToString() const;

 private:
  struct Body {
    std::vector<IntensionalStatement> statements;
    std::optional<std::string> empty_proof;
  };

  // The body, made first (never built) or cloned (shared) as needed.
  Body& MutableBody();

  std::shared_ptr<Body> body_;  // null until the first Add/Reserve/proof
};

}  // namespace iqs

#endif  // IQS_INFERENCE_INTENSIONAL_ANSWER_H_
