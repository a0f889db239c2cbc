#ifndef IQS_INFERENCE_FACT_H_
#define IQS_INFERENCE_FACT_H_

#include <string>
#include <vector>

#include "rules/clause.h"

namespace iqs {

// A fact derived (or given) about every tuple of a query's answer set:
// either a type membership ("x isa SSBN") or an attribute restriction
// ("7250 <= Displacement <= 30000"). Facts carry the ids of the rules
// that produced them (empty for facts read directly off the query).
struct Fact {
  enum class Kind { kType, kRange };
  // Where the fact came from: read off the query itself, concluded by a
  // rule application, or added by hierarchy closure (supertypes and
  // derivation expansion). Backward inference only targets seed and rule
  // facts — hierarchy-closure facts like "x isa SUBMARINE" are true of
  // every answer but far too weak to characterize one.
  enum class Origin { kSeed, kRule, kHierarchy };

  Kind kind = Kind::kRange;
  Origin origin = Origin::kSeed;

  // kType fields. `variable` is the display name from the originating
  // context ("x", "y"); role letters are context-local, so semantic
  // matching uses `root_entity` — the root of the hierarchy the type
  // belongs to (BQS -> SONAR) — which identifies the role globally.
  std::string variable = "x";
  std::string type_name;
  std::string root_entity;

  // kRange field.
  Clause clause;

  // Provenance: ids of the rules applied to derive this fact.
  std::vector<int> rule_ids;

  static Fact Type(std::string variable, std::string type_name,
                   std::vector<int> rule_ids = {},
                   Origin origin = Origin::kSeed);
  static Fact Range(Clause clause, std::vector<int> rule_ids = {},
                    Origin origin = Origin::kSeed);

  // Equality ignores provenance (used for fixpoint detection).
  bool SameContent(const Fact& other) const;

  // "x isa SSBN  [R9]" / "Displacement >= 7250".
  std::string ToString() const;
  // Appends ToString()'s text to `out`.
  void AppendTo(std::string* out) const;
  // Appends the text without the provenance: "x isa SSBN".
  void AppendContentTo(std::string* out) const;
};

// Inserts `fact` unless a content-equal fact is present; returns whether
// it was inserted.
bool AddFact(std::vector<Fact>* facts, Fact fact);

}  // namespace iqs

#endif  // IQS_INFERENCE_FACT_H_
