#ifndef IQS_SQL_BINDER_H_
#define IQS_SQL_BINDER_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/predicate.h"
#include "sql/sql_ast.h"

namespace iqs {

// The one place a SELECT statement's names and literals get their
// meaning. Bind() resolves every FROM entry once, every WHERE column
// reference to its entry and schema slot, and every WHERE literal to the
// type of the column it is compared with. The query processor binds once
// per call and hands the result to Describe, the semantic rewrite and
// the executor, so the intensional answer, the rewrite and the scan all
// reason over the same typed constants.

// Coerces `literal` (spelled `raw` in the query) for comparison with a
// column of type `type`: numeric literals against CHAR columns keep their
// spelling (CLASS = 0101 means CLASS = '0101'), integers widen to REAL,
// and quoted text parses as INT or DATE. TypeError when the domains
// cannot meet; text that does not parse keeps its ParseError.
Result<Value> CoerceLiteral(const Value& literal, const std::string& raw,
                            ValueType type);

// "Displacement" from "CLASS.Displacement" (unqualified names as is).
std::string BaseName(const std::string& attribute);

// Resolves `ref` against a schema whose attributes are named
// "<table-or-alias>.<attr>" (or bare, as in an aggregated schema):
// qualified refs match exactly; unqualified refs match by base name and
// must be unambiguous (InvalidArgument) and present (NotFound).
Result<size_t> ResolveColumn(const Schema& schema, const ColumnRef& ref);

// Binds a WHERE or HAVING expression to a predicate over `schema`:
// columns resolve through ResolveColumn, a literal facing a column is
// coerced through CoerceLiteral, and `x BETWEEN a AND b` becomes
// `x >= a AND x <= b`. A comparison (LIKE aside) whose two sides have
// incomparable types fails with ApplyCompare's TypeError, so the bound
// predicate cannot fail on rows that conform to their schema. Errors
// surface in the order of a left-to-right walk of the tree.
Result<PredicatePtr> BindPredicate(const SqlExpr& expr, const Schema& schema);

// One FROM entry: a stored relation, or the sys.* snapshot taken at bind
// time (one per named relation, shared by every entry that names it).
struct BoundTable {
  TableRef ref;
  const Relation* relation = nullptr;
  std::shared_ptr<const Relation> snapshot;  // set for sys.* relations
  size_t offset = 0;  // first slot of this entry in BoundQuery::schema

  bool is_virtual() const { return snapshot != nullptr; }
};

// A column reference resolved to its FROM entry and that entry's slot.
struct BoundColumn {
  size_t table = 0;
  size_t slot = 0;
  ValueType type = ValueType::kNull;
};

// A top-level WHERE conjunct, oriented column-first, with its constants
// coerced to the column's type.
struct BoundConjunct {
  enum class Kind {
    kOther,    // OR, NOT, literal-literal, BETWEEN over columns,
               // constant LIKE column
    kCompare,  // column <op> constant
    kBetween,  // column BETWEEN constant AND high
    kColumns,  // column <op> other
  };
  Kind kind = Kind::kOther;
  const SqlExpr* expr = nullptr;
  PredicatePtr predicate;  // this conjunct over BoundQuery::schema
  BoundColumn column;
  CompareOp op = CompareOp::kEq;  // kCompare / kColumns
  Value constant;                 // kCompare; kBetween's low bound
  Value high;                     // kBetween
  BoundColumn other;              // kColumns
};

// A statement bound against one database state. Refers to the statement
// (and, for stored relations, to the database's relations), so it must
// not outlive either.
struct BoundQuery {
  const SelectStatement* statement = nullptr;
  std::vector<BoundTable> tables;
  // Every entry's attributes named "<effective>.<attr>", in FROM order:
  // the layout the conjuncts' predicates are bound over.
  Schema schema;
  std::vector<BoundConjunct> conjuncts;

  const AttributeDef& attribute(const BoundColumn& column) const {
    return tables[column.table].relation->schema().attribute(column.slot);
  }
};

// Binds `stmt` against `db`. Errors: an empty FROM list, an unknown or
// doubly named relation, then the first WHERE resolution, coercion or
// type error in a left-to-right walk. The select list, GROUP BY, HAVING and
// ORDER BY are resolved by the executor, through ResolveColumn, against
// the joined or aggregated schema they name.
Result<BoundQuery> Bind(const SelectStatement& stmt, const Database& db);

}  // namespace iqs

#endif  // IQS_SQL_BINDER_H_
