#ifndef IQS_QUEL_QUEL_AST_H_
#define IQS_QUEL_QUEL_AST_H_

#include <string>
#include <vector>

#include "relational/value.h"
#include "sql/sql_ast.h"

namespace iqs {

// AST for the QUEL subset the paper's prototype is written in (§5.2.1
// shows the Rule Induction Algorithm as QUEL statements against INGRES).
// Supported statements:
//
//   range of r is SUBMARINE
//   retrieve [into S] [unique] (r.Y, r.X) [where qual] [sort by r.Y]
//   delete s [where qual]
//   append to S (X = 1, Y = "a")
//
// QUEL's tuple-variable semantics: a retrieve ranges over all
// combinations of the tuple variables mentioned anywhere in the
// statement; the qualification filters combinations; the target list
// projects. A delete removes those tuples of the deleted variable for
// which SOME combination of the other variables satisfies the
// qualification (this is what step 2's anti-join delete relies on).
//
// An attribute reference r.Y is the column reference ColumnRef{"r", "Y"}
// qualified by its tuple variable, and a qualification parses straight
// into the SQL expression tree with each constant keeping its spelling,
// so it is the WHERE clause of the SELECT the statement lowers to.

// One target-list element: [name =] r.Attr, with `ref` qualified by the
// tuple variable. The result column name defaults to the attribute name.
struct QuelTarget {
  std::string name;  // empty -> attribute name
  ColumnRef ref;

  const std::string& effective_name() const {
    return name.empty() ? ref.name : name;
  }
};

struct QuelRangeStatement {
  std::string variable;
  std::string relation;
};

struct QuelRetrieveStatement {
  std::string into;  // empty -> anonymous result
  bool unique = false;
  std::vector<QuelTarget> targets;
  SqlExprPtr where;  // may be null
  std::vector<ColumnRef> sort_by;
};

struct QuelDeleteStatement {
  std::string variable;
  SqlExprPtr where;  // may be null (deletes everything)
};

struct QuelAppendStatement {
  std::string relation;
  std::vector<std::string> attributes;
  std::vector<Value> values;
  std::vector<std::string> raw;  // literal spellings
};

struct QuelStatement {
  enum class Kind { kRange, kRetrieve, kDelete, kAppend };
  Kind kind = Kind::kRange;
  QuelRangeStatement range;
  QuelRetrieveStatement retrieve;
  QuelDeleteStatement del;
  QuelAppendStatement append;
};

}  // namespace iqs

#endif  // IQS_QUEL_QUEL_AST_H_
