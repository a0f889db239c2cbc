#ifndef IQS_TESTS_TEST_UTIL_H_
#define IQS_TESTS_TEST_UTIL_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "relational/relation.h"
#include "rules/rule.h"
#include "sql/binder.h"
#include "testbed/employee_db.h"
#include "testbed/ship_db.h"

// Assertion helpers for Status / Result<T>.
#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const ::iqs::Status iqs_test_status_ = (expr);      \
    ASSERT_TRUE(iqs_test_status_.ok())                  \
        << "status: " << iqs_test_status_.ToString();   \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    const ::iqs::Status iqs_test_status_ = (expr);      \
    EXPECT_TRUE(iqs_test_status_.ok())                  \
        << "status: " << iqs_test_status_.ToString();   \
  } while (0)

// Unwraps a Result<T> into `lhs`, failing the test on error.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                       \
  ASSERT_OK_AND_ASSIGN_IMPL_(                                 \
      IQS_TEST_CONCAT_(iqs_test_result_, __LINE__), lhs, expr)

#define IQS_TEST_CONCAT_INNER_(a, b) a##b
#define IQS_TEST_CONCAT_(a, b) IQS_TEST_CONCAT_INNER_(a, b)
#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)            \
  auto tmp = (expr);                                          \
  ASSERT_TRUE(tmp.ok()) << "status: " << tmp.status().ToString(); \
  lhs = std::move(tmp).value()

namespace iqs {
namespace testing_util {

// Unwraps a testbed builder Result, recording a test failure (and
// returning null) on error. Callers ASSERT on the returned pointer.
template <typename T>
std::unique_ptr<T> UnwrapOrFail(Result<std::unique_ptr<T>> result,
                                const char* what) {
  EXPECT_TRUE(result.ok()) << what << ": " << result.status();
  return result.ok() ? std::move(result).value() : nullptr;
}

// The Appendix-C ship testbed, unwrapped. Shared by the executor,
// induction, and integration suites, which previously each re-rolled
// this boilerplate.
inline std::unique_ptr<Database> ShipDatabaseOrFail() {
  return UnwrapOrFail(BuildShipDatabase(), "BuildShipDatabase");
}
inline std::unique_ptr<KerCatalog> ShipCatalogOrFail() {
  return UnwrapOrFail(BuildShipCatalog(), "BuildShipCatalog");
}
inline std::unique_ptr<IqsSystem> ShipSystemOrFail() {
  return UnwrapOrFail(BuildShipSystem(), "BuildShipSystem");
}

// The employee testbed, unwrapped.
inline std::unique_ptr<Database> EmployeeDatabaseOrFail() {
  return UnwrapOrFail(BuildEmployeeDatabase(), "BuildEmployeeDatabase");
}
inline std::unique_ptr<KerCatalog> EmployeeCatalogOrFail() {
  return UnwrapOrFail(BuildEmployeeCatalog(), "BuildEmployeeCatalog");
}
inline std::unique_ptr<IqsSystem> EmployeeSystemOrFail() {
  return UnwrapOrFail(BuildEmployeeSystem(), "BuildEmployeeSystem");
}

// Builds a relation from a schema and text rows (fields parsed with
// Value::FromText per attribute type).
inline Relation MakeRelation(const std::string& name, Schema schema,
                             const std::vector<std::vector<std::string>>& rows) {
  Relation rel(name, std::move(schema));
  for (const auto& row : rows) {
    Status s = rel.InsertText(row);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return rel;
}

// Column values of `attr` rendered as text, in row order.
inline std::vector<std::string> ColumnText(const Relation& rel,
                                           const std::string& attr) {
  std::vector<std::string> out;
  auto column = rel.Column(attr);
  EXPECT_TRUE(column.ok()) << column.status().ToString();
  if (!column.ok()) return out;
  for (const Value& v : *column) out.push_back(v.ToString());
  return out;
}

// The rows of the cross product of `bound`'s FROM entries, walked one
// tuple at a time in FROM order and laid out as `bound.schema`, that
// every bound conjunct admits.
inline Result<std::vector<Tuple>> TupleAtATimeJoin(const BoundQuery& bound) {
  std::vector<Tuple> combined = {Tuple()};
  for (const BoundTable& table : bound.tables) {
    std::vector<Tuple> next;
    for (const Tuple& left : combined) {
      for (const Tuple& right : table.relation->rows()) {
        next.push_back(Tuple::Concat(left, right));
      }
    }
    combined = std::move(next);
  }
  std::vector<Tuple> out;
  for (Tuple& row : combined) {
    bool keep = true;
    for (size_t k = 0; k < bound.conjuncts.size() && keep; ++k) {
      IQS_ASSIGN_OR_RETURN(keep, bound.conjuncts[k].predicate->Eval(row));
    }
    if (keep) out.push_back(std::move(row));
  }
  return out;
}

// An executor-independent oracle for select-project-join statements,
// one tuple at a time: binds `stmt`, keeps the rows of TupleAtATimeJoin,
// and projects the select list (DISTINCT keeps first occurrences).
// Aggregates, GROUP BY and ORDER BY are not evaluated; the
// ExecutorOracle in tests/executor_oracle.h adds them.
inline Result<std::vector<Tuple>> TupleAtATimeRows(
    const Database& db, const SelectStatement& stmt) {
  IQS_ASSIGN_OR_RETURN(BoundQuery bound, Bind(stmt, db));
  std::vector<size_t> columns;
  for (size_t i = 0; stmt.select_all && i < bound.schema.size(); ++i) {
    columns.push_back(i);
  }
  for (const SelectItem& item : stmt.select_list) {
    IQS_ASSIGN_OR_RETURN(size_t slot,
                         ResolveColumn(bound.schema, item.column));
    columns.push_back(slot);
  }
  IQS_ASSIGN_OR_RETURN(std::vector<Tuple> joined, TupleAtATimeJoin(bound));
  std::vector<Tuple> out;
  std::set<Tuple> seen;
  for (const Tuple& row : joined) {
    Tuple projected;
    for (size_t c : columns) projected.Append(row.at(c));
    if (stmt.distinct && !seen.insert(projected).second) continue;
    out.push_back(std::move(projected));
  }
  return out;
}

// Paper §4 soundness of one served answer: a proven-empty answer has no
// rows, and every range fact of a forward statement that names a
// selected column holds on every returned row.
inline void ExpectSoundAnswer(const IqsSystem& system,
                              const QueryResult& result,
                              const std::string& sql) {
  if (result.intensional.empty_proof().has_value()) {
    EXPECT_EQ(result.extensional.size(), 0u)
        << sql << ": proven empty, yet rows came back";
  }
  for (const IntensionalStatement& s : result.intensional.statements()) {
    if (s.direction != AnswerDirection::kContains) continue;
    Result<double> coverage = system.processor().Coverage(result, s);
    if (coverage.ok()) {
      EXPECT_EQ(*coverage, 1.0)
          << sql << ": forward statement " << s.ToString()
          << " does not cover every row";
    }
  }
}

// All rule bodies as text (for compact golden comparisons).
inline std::vector<std::string> RuleBodies(const std::vector<Rule>& rules) {
  std::vector<std::string> out;
  out.reserve(rules.size());
  for (const Rule& r : rules) out.push_back(r.Body());
  return out;
}

}  // namespace testing_util
}  // namespace iqs

#endif  // IQS_TESTS_TEST_UTIL_H_
