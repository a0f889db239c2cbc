#include "sql/sql_executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "fault/failpoint.h"
#include "exec/exec_context.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/algebra.h"
#include "sql/sql_parser.h"

namespace iqs {

thread_local SqlExecutor::ExecutionStats SqlExecutor::stats_;

// Out of line, beside stats_: defined inline, every caller's translation
// unit reached the thread-local through its own TLS wrapper, and GCC's
// UBSan null check reported that reference as null.
const SqlExecutor::ExecutionStats& SqlExecutor::last_stats() const {
  return stats_;
}

Relation SqlExecutor::QualifiedEmpty(const Schema& schema,
                                     const std::string& effective_name) {
  std::vector<AttributeDef> attrs = schema.attributes();
  for (AttributeDef& a : attrs) {
    a.name = effective_name + "." + a.name;
    a.is_key = false;
  }
  return Relation(effective_name, Schema(std::move(attrs)));
}

Result<Relation> SqlExecutor::JoinOn(const Relation& left, size_t li,
                                     const Relation& right, size_t ri) {
  std::vector<AttributeDef> attrs = left.schema().attributes();
  attrs.insert(attrs.end(), right.schema().attributes().begin(),
               right.schema().attributes().end());
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation out(left.name() + "*" + right.name(), std::move(schema));
  std::multimap<std::string, size_t> index;
  for (size_t r = 0; r < right.size(); ++r) {
    const Value& v = right.row(r).at(ri);
    if (!v.is_null()) index.emplace(v.ToString(), r);
  }
  // Governed at probe-batch granularity: every 256 probe rows the join
  // charges its freshly materialized output and re-checks the context,
  // so a runaway many-to-many join unwinds instead of filling memory.
  size_t width = out.schema().size();
  size_t last_size = 0;
  for (size_t l = 0; l < left.size(); ++l) {
    if ((l & 255) == 0) {
      IQS_RETURN_IF_ERROR(
          exec::ChargeRows("sql.join", out.size() - last_size, width));
      last_size = out.size();
    }
    const Tuple& lt = left.row(l);
    const Value& v = lt.at(li);
    if (v.is_null()) continue;
    auto [begin, end] = index.equal_range(v.ToString());
    for (auto it = begin; it != end; ++it) {
      if (right.row(it->second).at(ri) != v) continue;
      out.AppendUnchecked(Tuple::Concat(lt, right.row(it->second)));
    }
  }
  IQS_RETURN_IF_ERROR(
      exec::ChargeRows("sql.join", out.size() - last_size, width));
  return out;
}

Result<Relation> SqlExecutor::Execute(const SelectStatement& stmt) const {
  IQS_ASSIGN_OR_RETURN(BoundQuery bound, Bind(stmt, *db_));
  return Execute(bound);
}

Result<Relation> SqlExecutor::Execute(const BoundQuery& bound) const {
  return ExecuteMeasured(bound, /*schema_only=*/false);
}

Result<Relation> SqlExecutor::ExecuteSchemaOnly(
    const SelectStatement& stmt) const {
  IQS_ASSIGN_OR_RETURN(BoundQuery bound, Bind(stmt, *db_));
  return ExecuteSchemaOnly(bound);
}

Result<Relation> SqlExecutor::ExecuteSchemaOnly(
    const BoundQuery& bound) const {
  IQS_COUNTER_INC("sql.execute.schema_only");
  return ExecuteMeasured(bound, /*schema_only=*/true);
}

Result<Relation> SqlExecutor::ExecuteMeasured(const BoundQuery& bound,
                                              bool schema_only) const {
  IQS_SPAN("sql.execute");
  IQS_COUNTER_INC("sql.execute.count");
  IQS_FAILPOINT("exec.scan");
  auto start = std::chrono::steady_clock::now();
  stats_ = ExecutionStats();
  Result<Relation> result = ExecuteInternal(bound, schema_only);
  int64_t micros = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  IQS_HISTOGRAM_OBSERVE("sql.execute.micros", micros);
  if (!result.ok()) {
    IQS_COUNTER_INC("sql.execute.errors");
    return result;
  }
  stats_.rows_returned = result->size();
  IQS_COUNTER_ADD("sql.execute.rows_scanned", stats_.base_rows_loaded);
  IQS_COUNTER_ADD("sql.execute.rows_returned", stats_.rows_returned);
  if (stats_.index_prefiltered_tables > 0) {
    IQS_COUNTER_INC("sql.execute.index_path");
  } else {
    IQS_COUNTER_INC("sql.execute.scan_path");
  }
  IQS_SPAN_ANNOTATE("rows_scanned",
                    static_cast<int64_t>(stats_.base_rows_loaded));
  IQS_SPAN_ANNOTATE("rows_returned",
                    static_cast<int64_t>(stats_.rows_returned));
  IQS_SPAN_ANNOTATE("index_tables",
                    static_cast<int64_t>(stats_.index_prefiltered_tables));
  return result;
}

std::optional<std::vector<uint32_t>> SqlExecutor::IndexRows(
    const BoundQuery& bound, size_t table) const {
  for (const BoundConjunct& c : bound.conjuncts) {
    const bool between = c.kind == BoundConjunct::Kind::kBetween;
    if (c.column.table != table) continue;
    if (!between && (c.kind != BoundConjunct::Kind::kCompare ||
                     c.op == CompareOp::kNe || c.op == CompareOp::kLike)) {
      continue;
    }
    const SortedIndex* index = db_->GetIndex(bound.tables[table].ref.name,
                                             bound.attribute(c.column).name);
    if (index == nullptr) continue;
    Value lo = c.constant;
    Value hi = between ? c.high : c.constant;
    if (!between && c.op != CompareOp::kEq) {
      auto min = index->Min();
      auto max = index->Max();
      if (!min.ok() || !max.ok()) {
        return std::vector<uint32_t>{};  // empty index: nothing matches
      }
      if (c.op == CompareOp::kLt || c.op == CompareOp::kLe) lo = *min;
      if (c.op == CompareOp::kGt || c.op == CompareOp::kGe) hi = *max;
    }
    if (!lo.ComparableWith(hi)) continue;
    if (lo > hi) return std::vector<uint32_t>{};
    std::vector<size_t> rows = index->Range(lo, hi);
    return std::vector<uint32_t>(rows.begin(), rows.end());
  }
  return std::nullopt;
}

Result<std::vector<uint32_t>> SqlExecutor::ScanRows(
    const BoundQuery& bound, size_t table,
    const ColumnarRelation& snapshot) const {
  const bool one_entry = bound.tables.size() == 1;
  std::vector<ColumnCondition> conditions;
  PredicatePtr residual;
  for (const BoundConjunct& c : bound.conjuncts) {
    const bool between = c.kind == BoundConjunct::Kind::kBetween;
    if ((between || c.kind == BoundConjunct::Kind::kCompare) &&
        c.column.table == table &&
        snapshot.column(c.column.slot).storage() != Column::Storage::kMixed) {
      if (between) {
        conditions.push_back({c.column.slot, CompareOp::kGe, c.constant});
        conditions.push_back({c.column.slot, CompareOp::kLe, c.high});
      } else {
        conditions.push_back({c.column.slot, c.op, c.constant});
      }
    } else if (one_entry) {
      // A one-entry layout is the relation's own, so the conjunct's
      // bound slots address the snapshot's columns directly.
      residual = residual == nullptr ? c.predicate
                                     : MakeAnd(std::move(residual),
                                               c.predicate);
    }
  }
  ColumnarScanStats scan_stats;
  IQS_ASSIGN_OR_RETURN(
      std::vector<uint32_t> admitted,
      ColumnarScan(snapshot, conditions, residual.get(), &scan_stats));
  ++stats_.columnar_tables;
  stats_.columnar_blocks_total += scan_stats.blocks_total;
  stats_.columnar_blocks_pruned += scan_stats.blocks_pruned;
  IQS_COUNTER_INC("sql.execute.columnar_path");
  IQS_COUNTER_ADD("sql.execute.columnar_blocks_pruned",
                  scan_stats.blocks_pruned);
  return admitted;
}

Result<Relation> SqlExecutor::ExecuteInternal(const BoundQuery& bound,
                                              bool schema_only) const {
  const SelectStatement& stmt = *bound.statement;
  // Load and qualify each FROM entry. A sys.* entry arrives as the
  // binder's row snapshot. A stored entry loads only the rows its own
  // conjuncts admit: an index serving one of them picks them, else the
  // columnar scan does.
  std::vector<Relation> tables;
  bool where_filtered = false;
  for (size_t e = 0; e < bound.tables.size(); ++e) {
    const BoundTable& entry = bound.tables[e];
    const Relation& rel = *entry.relation;
    Relation qualified =
        QualifiedEmpty(rel.schema(), entry.ref.effective_name());
    const size_t width = qualified.schema().size();
    if (schema_only) {
      // Proven-empty scan skip: only the schema participates; joins,
      // filtering, aggregation, and projection all still run so the
      // output shape (and any error) matches a real scan of zero rows.
      tables.push_back(std::move(qualified));
      continue;
    }
    if (entry.is_virtual()) {
      for (const Tuple& t : rel.rows()) qualified.AppendUnchecked(t);
      stats_.base_rows_loaded += rel.size();
      IQS_RETURN_IF_ERROR(exec::ChargeRows("sql.scan", rel.size(), width));
      tables.push_back(std::move(qualified));
      continue;
    }
    std::shared_ptr<const ColumnarRelation> snapshot;
    std::optional<std::vector<uint32_t>> admitted = IndexRows(bound, e);
    if (admitted.has_value()) {
      ++stats_.index_prefiltered_tables;
      stats_.base_rows_loaded += admitted->size();
    } else {
      IQS_ASSIGN_OR_RETURN(snapshot, db_->ColumnarSnapshot(entry.ref.name));
      IQS_ASSIGN_OR_RETURN(admitted, ScanRows(bound, e, *snapshot));
      stats_.base_rows_loaded += rel.size();
      where_filtered = bound.tables.size() == 1;
    }
    // One materialization loop for both paths, charged per 1024 rows
    // before they land.
    for (size_t i = 0; i < admitted->size(); ++i) {
      if ((i & 1023) == 0) {
        IQS_RETURN_IF_ERROR(exec::ChargeRows(
            "sql.scan", std::min<size_t>(1024, admitted->size() - i), width));
      }
      const uint32_t r = (*admitted)[i];
      qualified.AppendUnchecked(
          snapshot != nullptr ? snapshot->MaterializeRow(r) : rel.row(r));
    }
    tables.push_back(std::move(qualified));
  }

  // Greedy join plan: start with the first table; repeatedly attach a
  // table linked to the joined ones by an equi-join conjunct, else
  // cross-product the next one. `offsets` tracks where each entry's
  // columns land in `working`.
  std::vector<const BoundConjunct*> join_conds;
  for (const BoundConjunct& c : bound.conjuncts) {
    if (c.kind == BoundConjunct::Kind::kColumns && c.op == CompareOp::kEq) {
      join_conds.push_back(&c);
    }
  }
  std::vector<bool> joined(tables.size(), false);
  std::vector<size_t> offsets(tables.size(), 0);
  Relation working = std::move(tables[0]);
  joined[0] = true;
  size_t remaining = tables.size() - 1;
  while (remaining > 0) {
    bool attached = false;
    for (const BoundConjunct*& cond : join_conds) {
      if (cond == nullptr) continue;  // already used
      for (size_t t = 0; t < tables.size(); ++t) {
        if (joined[t]) continue;
        // One side must lie in `working`, the other in table t.
        const BoundColumn* in_working = &cond->column;
        const BoundColumn* in_table = &cond->other;
        if (!joined[in_working->table] || in_table->table != t) {
          std::swap(in_working, in_table);
          if (!joined[in_working->table] || in_table->table != t) continue;
        }
        offsets[t] = working.schema().size();
        IQS_ASSIGN_OR_RETURN(
            working,
            JoinOn(working, offsets[in_working->table] + in_working->slot,
                   tables[t], in_table->slot));
        joined[t] = true;
        cond = nullptr;
        --remaining;
        attached = true;
        break;
      }
      if (attached) break;
    }
    if (!attached) {
      // No join condition reaches an unjoined table: cross product.
      for (size_t t = 0; t < tables.size(); ++t) {
        if (joined[t]) continue;
        std::vector<AttributeDef> attrs = working.schema().attributes();
        attrs.insert(attrs.end(), tables[t].schema().attributes().begin(),
                     tables[t].schema().attributes().end());
        IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
        Relation crossed(working.name() + "x" + tables[t].name(),
                         std::move(schema));
        // Cross products are the canonical runaway materialization; one
        // governance charge per outer row bounds the damage to a single
        // inner sweep.
        size_t crossed_width = crossed.schema().size();
        for (const Tuple& lt : working.rows()) {
          IQS_RETURN_IF_ERROR(exec::ChargeRows("sql.join", tables[t].size(),
                                               crossed_width));
          for (const Tuple& rt : tables[t].rows()) {
            crossed.AppendUnchecked(Tuple::Concat(lt, rt));
          }
        }
        offsets[t] = working.schema().size();
        working = std::move(crossed);
        joined[t] = true;
        --remaining;
        break;
      }
    }
  }

  // Filter with the full WHERE clause, unless the scan of a one-entry
  // FROM already applied it. Partitioned filter: chunks keep local row
  // vectors concatenated in chunk order, so row order matches the serial
  // filter.
  if (bound.where != nullptr && !where_filtered) {
    PredicatePtr pred = bound.WhereAt(offsets);
    const std::vector<Tuple>& rows = working.rows();
    using Part = Result<std::vector<Tuple>>;
    Part kept = exec::ParallelReduce<Part>(
        "exec.scan", rows.size(), 256, std::vector<Tuple>{},
        [&rows, &pred](size_t begin, size_t end) -> Part {
          std::vector<Tuple> local;
          for (size_t i = begin; i < end; ++i) {
            if (((i - begin) & 1023) == 0) IQS_GOV_CHECKPOINT("sql.scan");
            IQS_ASSIGN_OR_RETURN(bool keep, pred->Eval(rows[i]));
            if (keep) local.push_back(rows[i]);
          }
          return local;
        },
        [](Part* acc, Part&& part) {
          if (!acc->ok()) return;
          if (!part.ok()) {
            *acc = std::move(part);
            return;
          }
          std::vector<Tuple>& dst = **acc;
          for (Tuple& t : *part) dst.push_back(std::move(t));
        });
    if (!kept.ok()) return kept.status();
    Relation filtered(working.name(), working.schema());
    for (Tuple& t : *kept) filtered.AppendUnchecked(std::move(t));
    working = std::move(filtered);
  }

  // Aggregation path: grouping replaces plain projection.
  if (stmt.has_aggregates() || !stmt.group_by.empty() ||
      stmt.having != nullptr) {
    IQS_ASSIGN_OR_RETURN(Relation aggregated,
                         ExecuteAggregate(working, stmt));
    if (stmt.having != nullptr) {
      // HAVING references select-list aggregates by their rendered name
      // and group columns by their base name — both resolve against the
      // aggregated schema.
      IQS_ASSIGN_OR_RETURN(PredicatePtr having,
                           BindPredicate(*stmt.having, aggregated.schema()));
      Relation filtered(aggregated.name(), aggregated.schema());
      for (const Tuple& row : aggregated.rows()) {
        IQS_ASSIGN_OR_RETURN(bool keep, having->Eval(row));
        if (keep) filtered.AppendUnchecked(row);
      }
      aggregated = std::move(filtered);
    }
    // ORDER BY applies to the aggregated output (group columns). Output
    // columns carry base names, so a qualified sort key falls back to
    // its base name.
    if (!stmt.order_by.empty()) {
      std::vector<std::pair<size_t, bool>> keys;
      for (const OrderItem& item : stmt.order_by) {
        auto idx = ResolveColumn(aggregated.schema(), item.column);
        if (!idx.ok() && !item.column.qualifier.empty()) {
          idx = ResolveColumn(aggregated.schema(),
                              ColumnRef{"", item.column.name});
        }
        if (!idx.ok()) return idx.status();
        keys.emplace_back(*idx, item.descending);
      }
      std::vector<Tuple> rows = aggregated.rows();
      std::stable_sort(rows.begin(), rows.end(),
                       [&keys](const Tuple& a, const Tuple& b) {
                         for (const auto& [idx, desc] : keys) {
                           int c = a.at(idx).Compare(b.at(idx));
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
      Relation sorted(aggregated.name(), aggregated.schema());
      for (Tuple& t : rows) sorted.AppendUnchecked(std::move(t));
      return sorted;
    }
    return aggregated;
  }

  // ORDER BY before projection so sort keys need not be selected.
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;
    for (const OrderItem& item : stmt.order_by) {
      IQS_ASSIGN_OR_RETURN(size_t idx,
                           ResolveColumn(working.schema(), item.column));
      keys.emplace_back(idx, item.descending);
    }
    std::vector<Tuple> rows = working.rows();
    std::stable_sort(rows.begin(), rows.end(),
                     [&keys](const Tuple& a, const Tuple& b) {
                       for (const auto& [idx, desc] : keys) {
                         int c = a.at(idx).Compare(b.at(idx));
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    Relation sorted(working.name(), working.schema());
    for (Tuple& t : rows) sorted.AppendUnchecked(std::move(t));
    working = std::move(sorted);
  }

  // Projection. Output columns are named by their base name unless that
  // would collide, in which case the qualified name is kept.
  std::vector<size_t> indices;
  if (stmt.select_all) {
    for (size_t i = 0; i < working.schema().size(); ++i) indices.push_back(i);
  } else {
    for (const SelectItem& item : stmt.select_list) {
      IQS_ASSIGN_OR_RETURN(size_t idx,
                           ResolveColumn(working.schema(), item.column));
      indices.push_back(idx);
    }
  }
  std::map<std::string, int> base_counts;
  for (size_t idx : indices) {
    base_counts[ToLower(BaseName(working.schema().attribute(idx).name))] += 1;
  }
  std::vector<AttributeDef> out_attrs;
  for (size_t idx : indices) {
    AttributeDef def = working.schema().attribute(idx);
    std::string base = BaseName(def.name);
    if (base_counts[ToLower(base)] == 1) def.name = base;
    out_attrs.push_back(std::move(def));
  }
  IQS_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  Relation result("result", std::move(out_schema));
  std::set<Tuple> seen;
  for (const Tuple& t : working.rows()) {
    Tuple projected;
    for (size_t idx : indices) projected.Append(t.at(idx));
    if (stmt.distinct && !seen.insert(projected).second) continue;
    result.AppendUnchecked(std::move(projected));
  }
  return result;
}

Result<Relation> SqlExecutor::ExecuteAggregate(const Relation& working,
                                               const SelectStatement& stmt) {
  if (stmt.select_all) {
    return Status::InvalidArgument("SELECT * cannot be combined with "
                                   "aggregates or GROUP BY");
  }
  // Resolve group columns.
  std::vector<size_t> group_cols;
  for (const ColumnRef& ref : stmt.group_by) {
    IQS_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(working.schema(), ref));
    group_cols.push_back(idx);
  }
  // Resolve select items; plain items must be grouped.
  struct BoundItem {
    const SelectItem* item;
    size_t column = 0;  // unused for COUNT(*)
  };
  std::vector<BoundItem> items;
  for (const SelectItem& item : stmt.select_list) {
    BoundItem bound{&item, 0};
    if (!(item.is_aggregate() && item.star)) {
      IQS_ASSIGN_OR_RETURN(bound.column,
                           ResolveColumn(working.schema(), item.column));
    }
    if (!item.is_aggregate()) {
      bool grouped = false;
      for (size_t g : group_cols) {
        if (g == bound.column) grouped = true;
      }
      if (!grouped) {
        return Status::InvalidArgument(
            "column '" + item.column.ToString() +
            "' must appear in GROUP BY or inside an aggregate");
      }
    }
    items.push_back(bound);
  }

  // Output schema.
  std::vector<AttributeDef> attrs;
  for (const BoundItem& bound : items) {
    const SelectItem& item = *bound.item;
    AttributeDef def;
    def.name = item.ToString();
    if (!item.is_aggregate()) {
      def = working.schema().attribute(bound.column);
      def.name = BaseName(def.name);
      def.is_key = false;
    } else {
      switch (item.fn) {
        case AggregateFn::kCount:
          def.type = ValueType::kInt;
          break;
        case AggregateFn::kMin:
        case AggregateFn::kMax:
          def.type = working.schema().attribute(bound.column).type;
          break;
        case AggregateFn::kSum:
          def.type =
              working.schema().attribute(bound.column).type == ValueType::kInt
                  ? ValueType::kInt
                  : ValueType::kReal;
          break;
        case AggregateFn::kAvg:
          def.type = ValueType::kReal;
          break;
        case AggregateFn::kNone:
          break;
      }
      if (item.fn == AggregateFn::kSum || item.fn == AggregateFn::kAvg) {
        ValueType source = working.schema().attribute(bound.column).type;
        if (source != ValueType::kInt && source != ValueType::kReal) {
          return Status::TypeError(std::string(AggregateFnName(item.fn)) +
                                   " requires a numeric column");
        }
      }
    }
    attrs.push_back(std::move(def));
  }
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation out("result", std::move(schema));

  // Group rows (group key compares by Tuple order). Without GROUP BY,
  // everything is one group — present even for empty input. Partitioned
  // grouping: chunks build local key -> row-index maps, merged in chunk
  // order so each group's index list stays ascending; the per-group
  // accumulation below then visits rows in exactly the serial order
  // (which keeps even float SUM/AVG byte-identical).
  using GroupMap = Result<std::map<Tuple, std::vector<size_t>>>;
  GroupMap grouped = exec::ParallelReduce<GroupMap>(
      "exec.aggregate", working.size(), 512,
      std::map<Tuple, std::vector<size_t>>{},
      [&working, &group_cols](size_t begin, size_t end) -> GroupMap {
        std::map<Tuple, std::vector<size_t>> local;
        for (size_t r = begin; r < end; ++r) {
          if (((r - begin) & 1023) == 0) IQS_GOV_CHECKPOINT("sql.aggregate");
          Tuple key;
          for (size_t g : group_cols) key.Append(working.row(r).at(g));
          local[std::move(key)].push_back(r);
        }
        return local;
      },
      [](GroupMap* acc, GroupMap&& part) {
        if (!acc->ok()) return;
        if (!part.ok()) {
          *acc = std::move(part);
          return;
        }
        for (auto& [key, rows] : *part) {
          std::vector<size_t>& dst = (**acc)[key];
          dst.insert(dst.end(), rows.begin(), rows.end());
        }
      });
  if (!grouped.ok()) return grouped.status();
  std::map<Tuple, std::vector<size_t>>& groups = *grouped;
  if (group_cols.empty() && groups.empty()) groups[Tuple()] = {};

  size_t emitted_groups = 0;
  for (const auto& [key, rows] : groups) {
    if ((emitted_groups++ & 255) == 0) IQS_GOV_CHECKPOINT("sql.aggregate");
    Tuple result_row;
    for (const BoundItem& bound : items) {
      const SelectItem& item = *bound.item;
      if (!item.is_aggregate()) {
        // Group column: take the value from any member row.
        result_row.Append(rows.empty() ? Value::Null()
                                       : working.row(rows[0]).at(bound.column));
        continue;
      }
      if (item.fn == AggregateFn::kCount && item.star) {
        result_row.Append(Value::Int(static_cast<int64_t>(rows.size())));
        continue;
      }
      int64_t count = 0;
      Value min, max;
      double sum = 0.0;
      bool sum_is_int =
          working.schema().attribute(bound.column).type == ValueType::kInt;
      int64_t int_sum = 0;
      for (size_t r : rows) {
        const Value& v = working.row(r).at(bound.column);
        if (v.is_null()) continue;
        ++count;
        if (min.is_null() || v < min) min = v;
        if (max.is_null() || v > max) max = v;
        if (item.fn == AggregateFn::kSum || item.fn == AggregateFn::kAvg) {
          IQS_ASSIGN_OR_RETURN(double numeric, v.AsNumeric());
          sum += numeric;
          if (v.type() == ValueType::kInt) int_sum += v.AsInt();
        }
      }
      switch (item.fn) {
        case AggregateFn::kCount:
          result_row.Append(Value::Int(count));
          break;
        case AggregateFn::kMin:
          result_row.Append(min);
          break;
        case AggregateFn::kMax:
          result_row.Append(max);
          break;
        case AggregateFn::kSum:
          result_row.Append(count == 0 ? Value::Null()
                            : sum_is_int ? Value::Int(int_sum)
                                         : Value::Real(sum));
          break;
        case AggregateFn::kAvg:
          result_row.Append(count == 0
                                ? Value::Null()
                                : Value::Real(sum / static_cast<double>(
                                                        count)));
          break;
        case AggregateFn::kNone:
          break;
      }
    }
    out.AppendUnchecked(std::move(result_row));
  }
  return out;
}

Result<Relation> SqlExecutor::ExecuteSql(const std::string& sql) const {
  IQS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return Execute(stmt);
}

}  // namespace iqs
