#ifndef IQS_SQL_SQL_EXECUTOR_H_
#define IQS_SQL_SQL_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "relational/database.h"
#include "sql/binder.h"
#include "sql/sql_ast.h"

namespace iqs {

// Executes SELECT statements against a Database, producing the
// extensional answer (paper §4). Each stored FROM entry loads the rows
// its own conjuncts admit, through an index or the columnar scan; the
// working relation is the join of the entries — equi-join conditions
// found in the WHERE clause drive a greedy hash-join plan; remaining
// entries fall back to cross products — filtered by the full WHERE
// predicate, then projected / deduplicated / sorted.
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

  // How the FROM entries were read. An entry whose conjunct restricts an
  // indexed column loads only the index-admitted rows (the full WHERE
  // still applies afterwards, so open bounds may over-approximate
  // safely); every other stored entry is read by the columnar scan.
  struct ExecutionStats {
    size_t index_prefiltered_tables = 0;
    // Rows read across FROM entries: the index-admitted rows, or the
    // whole relation for a scanned or sys.* entry.
    size_t base_rows_loaded = 0;
    size_t rows_returned = 0;  // result cardinality
    // Entries read by the columnar scan (DESIGN.md §14) and its zone-map
    // block accounting: pruning shows up here, not in base_rows_loaded.
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

  // Index path: the rows of stored entry `table` admitted by the first
  // bound conjunct that restricts one of its indexed columns to a range,
  // ascending; nullopt when no conjunct applies. The full WHERE still
  // runs afterwards, so an open bound's closed hull is safe.
  std::optional<std::vector<uint32_t>> IndexRows(const BoundQuery& bound,
                                                 size_t table) const;

  // Scan path: the rows of stored entry `table` that ColumnarScan admits
  // over `snapshot`. The conditions are the entry's kCompare/kBetween
  // conjuncts on typed columns. In a one-entry FROM every other conjunct
  // is the residual, so the rows returned satisfy the whole WHERE; in a
  // multi-entry FROM they only prune the entry before the join.
  Result<std::vector<uint32_t>> ScanRows(
      const BoundQuery& bound, size_t table,
      const ColumnarRelation& snapshot) const;

  // An empty relation over `schema` with attributes renamed
  // "<effective>.<attr>": the shell each FROM entry's rows load into.
  static Relation QualifiedEmpty(const Schema& schema,
                                 const std::string& effective_name);

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
