#ifndef IQS_QUEL_QUEL_SESSION_H_
#define IQS_QUEL_QUEL_SESSION_H_

#include <map>
#include <string>
#include <vector>

#include "quel/quel_ast.h"
#include "relational/database.h"
#include "sql/sql_ast.h"

namespace iqs {

// Executes QUEL statements against a Database with INGRES-style tuple
// variable semantics. Range declarations persist for the session's
// lifetime, so the paper's §5.2.1 scripts run as written:
//
//   QuelSession session(&db);
//   session.ExecuteText("range of r is SUBMARINE");
//   session.ExecuteText(
//       "retrieve into S unique (r.Class, r.Id) sort by r.Class");
//
// Retrieval semantics: the statement ranges over all combinations of
// the tuple variables it mentions; the qualification filters; the
// target list projects (with `unique` deduplicating). `retrieve into`
// materializes the result in the database, replacing any relation of
// the same name. A delete removes the tuples of its variable for which
// some combination of the other mentioned variables satisfies the
// qualification.
//
// Retrieve and delete lower to a SELECT run by the SQL binder and
// executor: the variables, in first-use order, are the FROM entries
// (each aliased by its variable), the qualification is the WHERE, the
// targets the select list, `unique` DISTINCT and `sort by` ORDER BY. So
// QUEL compares, coerces literals and scans exactly as SQL does. A
// retrieve reports its errors in this order: an undeclared variable,
// duplicate target names, a sort key outside the target list, then
// whatever binding and executing the SELECT reports (an unknown
// relation or attribute, an uncoercible constant, a per-row error).
class QuelSession {
 public:
  // `db` must outlive the session.
  explicit QuelSession(Database* db) : db_(db) {}

  struct ExecutionResult {
    Relation relation;    // retrieve output; empty otherwise
    size_t affected = 0;  // deleted / appended tuple count
    // The executor's zone-map accounting for this statement (zero when
    // no columnar scan ran): blocks considered and skipped.
    size_t columnar_blocks_total = 0;
    size_t columnar_blocks_pruned = 0;
  };

  Result<ExecutionResult> Execute(const QuelStatement& statement);
  Result<ExecutionResult> ExecuteText(const std::string& text);
  // Runs a whole script; returns the result of the LAST statement.
  Result<ExecutionResult> ExecuteScript(const std::string& text);

  // The relation a tuple variable currently ranges over.
  Result<std::string> RelationOf(const std::string& variable) const;

 private:
  Result<ExecutionResult> ExecuteRange(const QuelRangeStatement& stmt);
  Result<ExecutionResult> ExecuteRetrieve(const QuelRetrieveStatement& stmt);
  Result<ExecutionResult> ExecuteDelete(const QuelDeleteStatement& stmt);
  Result<ExecutionResult> ExecuteAppend(const QuelAppendStatement& stmt);

  // Collects the variables a qualification mentions, in first-use order.
  static void CollectVariables(const SqlExpr* expr,
                               std::vector<std::string>* out);
  static void AddVariable(const std::string& variable,
                          std::vector<std::string>* out);

  // The SELECT skeleton a retrieve or delete lowers to: one FROM entry
  // per variable, over its range relation and aliased by the variable,
  // and `where` as the WHERE clause.
  Result<SelectStatement> Lower(const std::vector<std::string>& variables,
                                const SqlExprPtr& where) const;
  // Binds and executes a lowered statement (one quel.scan checkpoint),
  // recording the executor's zone-map accounting in `*out`.
  Result<Relation> Run(const SelectStatement& select,
                       ExecutionResult* out) const;

  Database* db_;
  std::map<std::string, std::string> ranges_;  // lower(var) -> relation
};

}  // namespace iqs

#endif  // IQS_QUEL_QUEL_SESSION_H_
