#ifndef IQS_SQL_SQL_EXECUTOR_H_
#define IQS_SQL_SQL_EXECUTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/database.h"
#include "sql/binder.h"
#include "sql/sql_ast.h"

namespace iqs {

// Executes SELECT statements against a Database, producing the
// extensional answer (paper §4). The working relation is the join of the
// FROM tables — equi-join conditions found in the WHERE clause drive a
// greedy hash-join plan; remaining tables fall back to cross products —
// filtered by the full WHERE predicate, then projected / deduplicated /
// sorted.
class SqlExecutor {
 public:
  // `db` must outlive the executor.
  explicit SqlExecutor(const Database* db) : db_(db) {}

  // Binds `stmt` against the database, then executes it.
  Result<Relation> Execute(const SelectStatement& stmt) const;
  // Executes a statement already bound against this executor's database.
  Result<Relation> Execute(const BoundQuery& bound) const;

  // Runs the full pipeline with every FROM table materialized as its
  // schema over ZERO rows. Used by the semantic optimizer when the WHERE
  // clause is provably unsatisfiable: the result has exactly the schema,
  // aggregate, and ordering shape a real scan of an empty answer would
  // produce (an aggregate query without GROUP BY still yields its single
  // group row), but no base rows are read and rows_scanned stays 0.
  Result<Relation> ExecuteSchemaOnly(const SelectStatement& stmt) const;
  Result<Relation> ExecuteSchemaOnly(const BoundQuery& bound) const;

  // Parses and executes.
  Result<Relation> ExecuteSql(const std::string& sql) const;

  // Observability for the index fast path: when a WHERE conjunct
  // restricts an indexed column of a FROM table with a constant, the
  // executor loads only the index-admitted rows instead of the whole
  // relation (the full WHERE still applies afterwards, so open bounds
  // may over-approximate safely).
  struct ExecutionStats {
    size_t index_prefiltered_tables = 0;
    size_t base_rows_loaded = 0;  // rows materialized across FROM tables
    size_t rows_returned = 0;     // result cardinality
    // Columnar fast path (DESIGN.md §14): tables answered from the
    // columnar snapshot, and its zone-map block accounting.
    // base_rows_loaded still counts the full relation size for a
    // columnar table — pruning shows up here, not there.
    size_t columnar_tables = 0;
    size_t columnar_blocks_total = 0;
    size_t columnar_blocks_pruned = 0;
  };
  // Stats of the last query executed ON THE CALLING THREAD. The slot is
  // thread-local so one executor can serve concurrent queries without the
  // bookkeeping of one racing the reporting of another.
  const ExecutionStats& last_stats() const;

 private:
  // Shared instrumentation wrapper around ExecuteInternal.
  Result<Relation> ExecuteMeasured(const BoundQuery& bound,
                                   bool schema_only) const;

  // Execute minus the instrumentation wrapper: the join/filter/project
  // pipeline with its many exit points. With `schema_only`, FROM tables
  // contribute their schemas but no rows.
  Result<Relation> ExecuteInternal(const BoundQuery& bound,
                                   bool schema_only) const;

  // Index fast path: the rows of stored entry `table` admitted by the
  // first bound conjunct that restricts one of its indexed columns to a
  // range, ascending; nullopt when no conjunct applies. The full WHERE
  // still runs afterwards, so an open bound's closed hull is safe.
  std::optional<std::vector<size_t>> IndexRows(const BoundQuery& bound,
                                               size_t table) const;

  // An empty relation over `schema` with attributes renamed
  // "<effective>.<attr>": the shell each FROM entry's rows load into.
  static Relation QualifiedEmpty(const Schema& schema,
                                 const std::string& effective_name);

  // Columnar fast path for a single-table SELECT with a WHERE clause
  // and no index-admitted prefilter: splits the bound predicate into its
  // column-vs-constant conjunct prefix and runs the zone-map-pruned
  // batch scan over the cached columnar snapshot. On success appends
  // the admitted rows to `*qualified` and returns true — the WHERE
  // clause is then fully applied. Returns false (appending nothing)
  // when no conjunct is extractable and the row scan should run
  // instead.
  Result<bool> TryColumnarScan(const BoundQuery& bound,
                               Relation* qualified) const;

  // Hash equi-join of two working relations on the given columns.
  static Result<Relation> JoinOn(const Relation& left, size_t left_col,
                                 const Relation& right, size_t right_col);

  // Grouping/aggregation over the filtered working relation: used when
  // the statement has aggregates or a GROUP BY. Plain select items must
  // appear in the GROUP BY list; an aggregate query without GROUP BY
  // forms a single group (one output row, even over empty input).
  static Result<Relation> ExecuteAggregate(const Relation& working,
                                           const SelectStatement& stmt);

  const Database* db_;
  static thread_local ExecutionStats stats_;
};

}  // namespace iqs

#endif  // IQS_SQL_SQL_EXECUTOR_H_
