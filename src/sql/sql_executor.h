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
// extensional answer (paper §4), as one pipeline over columnar snapshots
// in which a row stays a row id until the output is built:
//  * each FROM entry is a snapshot (a stored relation's cached one, or a
//    sys.* row snapshot transposed for the query) plus the row ids its
//    index or ColumnarScan admits under the entry's own conditions;
//  * equi-join conjuncts drive a greedy typed-key hash join that carries
//    one row-id vector per entry; an entry no conjunct reaches joins by a
//    cross product of ids;
//  * the conjuncts no scan condition or join key enforced run on the
//    joined rows, in statement order;
//  * GROUP BY is a hash aggregate over column values, emitted in key
//    order; one stable sort serves ORDER BY with or without it;
//  * the projection reads only the selected columns of the surviving
//    rows, and DISTINCT keeps first occurrences.
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
  // indexed column loads only the index-admitted rows (which still pass
  // the entry's conditions afterwards, so open bounds may over-approximate
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

  // Execute minus the instrumentation wrapper: the pipeline described
  // above, with its many exit points. With `schema_only`, FROM entries
  // contribute their schemas but no rows.
  Result<Relation> ExecuteInternal(const BoundQuery& bound,
                                   bool schema_only) const;

  // Index path: the rows of stored entry `table` admitted by the first
  // bound conjunct that restricts one of its indexed columns to a range,
  // ascending; nullopt when no conjunct applies. ScanRows still runs the
  // entry's conditions over them, so an open bound's closed hull is safe.
  std::optional<std::vector<uint32_t>> IndexRows(const BoundQuery& bound,
                                                 size_t table) const;

  // The rows of entry `table` that `snapshot` admits under the entry's
  // scan conditions (see IsScanCondition): over the IndexRows of a stored
  // entry when an index serves it, else by ColumnarScan. In a one-entry
  // FROM every other conjunct is the residual, so the rows returned
  // satisfy the whole WHERE; in a multi-entry FROM they only prune the
  // entry before the join.
  Result<std::vector<uint32_t>> ScanRows(
      const BoundQuery& bound, size_t table,
      const ColumnarRelation& snapshot) const;

  const Database* db_;
  static thread_local ExecutionStats stats_;
};

}  // namespace iqs

#endif  // IQS_SQL_SQL_EXECUTOR_H_
