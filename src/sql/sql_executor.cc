#include "sql/sql_executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "exec/exec_context.h"
#include "fault/failpoint.h"
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

namespace {

// One column of the working rows: working row i holds entry ids[i] of
// `column`.
struct Cells {
  const Column* column;
  const uint32_t* ids;

  Value Get(size_t row) const { return column->Get(ids[row]); }
  int Compare(size_t a, size_t b) const {
    return column->CompareRows(ids[a], ids[b]);
  }
};

// The working rows between the pipeline's stages. Row i is row ids[e][i]
// of the snapshot of each joined entry e: join, filter, aggregate and
// sort move row ids, and read a value only where they compare it. In a
// schema-only run the snapshots are null and there are no rows.
struct Working {
  std::vector<std::shared_ptr<const ColumnarRelation>> snapshots;
  std::vector<std::vector<uint32_t>> ids;  // per FROM entry
  std::vector<size_t> order;               // joined entries, in join order
  size_t size = 0;

  // Slot `index` of the bound layout. Valid until the next stage moves
  // the row ids.
  Cells cells(const BoundQuery& bound, size_t index) const {
    size_t e = bound.tables.size() - 1;
    while (bound.tables[e].offset > index) --e;
    const ColumnarRelation* snapshot = snapshots[e].get();
    return Cells{snapshot == nullptr
                     ? nullptr
                     : &snapshot->column(index - bound.tables[e].offset),
                 ids[e].data()};
  }
};

// Does entry `snapshot`'s scan enforce conjunct `c` (on that entry)? A
// column-constant comparison on a typed column runs as a ColumnarScan
// condition; a kMixed column's zone maps span types, so its conjuncts
// stay residual.
bool IsScanCondition(const BoundConjunct& c,
                     const ColumnarRelation& snapshot) {
  return (c.kind == BoundConjunct::Kind::kCompare ||
          c.kind == BoundConjunct::Kind::kBetween) &&
         snapshot.column(c.column.slot).storage() != Column::Storage::kMixed;
}

// Partitions working rows by their values in `keys` under Value::Compare
// equality, hashed through Column::Hash: Find(row) returns the row's
// group, opening one when the row is the first of its values. A row equal
// to the previous lookup's group skips the hash. A NaN, which equals
// every number, turns every later lookup into a scan of the groups, as in
// Relation's key index.
class RowGroups {
 public:
  explicit RowGroups(std::vector<Cells> keys) : keys_(std::move(keys)) {}

  size_t Find(size_t row) {
    if (!firsts_.empty() && Same(firsts_[last_], row)) return last_;
    std::optional<size_t> hash = 0;
    for (size_t k = 0; k < keys_.size() && hash.has_value(); ++k) {
      std::optional<size_t> h = keys_[k].column->Hash(keys_[k].ids[row]);
      hash = h.has_value() ? std::optional(HashCombine(*hash, *h))
                           : std::nullopt;
    }
    scan_ = scan_ || !hash.has_value();
    auto [first, last] = by_hash_.equal_range(hash.value_or(0));
    for (size_t g = 0; scan_ && g < firsts_.size(); ++g) {
      if (Same(firsts_[g], row)) return last_ = g;
    }
    for (auto it = first; !scan_ && it != last; ++it) {
      if (Same(firsts_[it->second], row)) return last_ = it->second;
    }
    by_hash_.emplace(hash.value_or(0), firsts_.size());
    firsts_.push_back(row);
    return last_ = firsts_.size() - 1;
  }

  // The first row of each group, in the order the groups opened.
  const std::vector<size_t>& firsts() const { return firsts_; }

 private:
  bool Same(size_t a, size_t b) const {
    for (const Cells& key : keys_) {
      if (key.Compare(a, b) != 0) return false;
    }
    return true;
  }

  std::vector<Cells> keys_;
  std::unordered_multimap<size_t, size_t> by_hash_;  // hash -> group
  std::vector<size_t> firsts_;
  size_t last_ = 0;
  bool scan_ = false;
};

// Attaches entry `t` to the working rows: joined on the working column
// `key->first` equal to t's column `key->second` (a typed-key hash join),
// or, without a key, as a cross product. Working rows keep their order,
// and each one's partners follow t's admitted order. `width` is the
// joined row's column count, for the "sql.join" charges.
Status Join(Working* w, size_t t, std::optional<std::pair<Cells, size_t>> key,
            size_t width) {
  std::vector<uint32_t> partners = std::move(w->ids[t]);
  std::vector<std::vector<uint32_t>> out(w->ids.size());
  auto emit = [w, t, &out](size_t row, uint32_t partner) {
    for (size_t e : w->order) out[e].push_back(w->ids[e][row]);
    out[t].push_back(partner);
  };
  size_t charged = 0;
  if (!key.has_value()) {
    // Cross products are the canonical runaway materialization; one
    // governance charge per outer row bounds the damage to a single
    // inner sweep.
    for (size_t row = 0; row < w->size; ++row) {
      IQS_RETURN_IF_ERROR(
          exec::ChargeRows("sql.join", partners.size(), width));
      charged += partners.size();
      for (uint32_t p : partners) emit(row, p);
    }
  } else if (w->size > 0 && !partners.empty()) {
    const Column& lcol = *key->first.column;
    const Column& rcol = w->snapshots[t]->column(key->second);
    // Build: hash -> first partner position, chained through `next` in
    // admitted order. Nulls never join; a NaN key sends every probe down
    // the comparison path.
    constexpr uint32_t kEnd = UINT32_MAX;
    std::unordered_map<size_t, uint32_t> heads;
    std::vector<uint32_t> next(partners.size(), kEnd);
    bool scan = false;
    for (uint32_t p = static_cast<uint32_t>(partners.size()); p-- > 0;) {
      if (rcol.IsNull(partners[p])) continue;
      std::optional<size_t> h = rcol.Hash(partners[p]);
      scan = scan || !h.has_value();
      if (!h.has_value()) continue;
      auto [it, fresh] = heads.try_emplace(*h, p);
      if (!fresh) next[p] = std::exchange(it->second, p);
    }
    // Probe, governed at batch granularity: every 256 probe rows the join
    // charges the rows it produced and re-checks the context, so a
    // runaway many-to-many join unwinds instead of filling memory.
    for (size_t row = 0; row < w->size; ++row) {
      if ((row & 255) == 0) {
        IQS_RETURN_IF_ERROR(exec::ChargeRows(
            "sql.join", out[t].size() - charged, width));
        charged = out[t].size();
      }
      const uint32_t id = key->first.ids[row];
      if (lcol.IsNull(id)) continue;
      auto try_partner = [&](uint32_t p) {
        if (lcol.Compare(id, rcol, partners[p]) == 0) emit(row, partners[p]);
      };
      std::optional<size_t> h = lcol.Hash(id);
      if (scan || !h.has_value()) {
        for (uint32_t p = 0; p < partners.size(); ++p) {
          if (!rcol.IsNull(partners[p])) try_partner(p);
        }
        continue;
      }
      auto it = heads.find(*h);
      if (it == heads.end()) continue;
      for (uint32_t p = it->second; p != kEnd; p = next[p]) try_partner(p);
    }
  }
  IQS_RETURN_IF_ERROR(
      exec::ChargeRows("sql.join", out[t].size() - charged, width));
  w->order.push_back(t);
  for (size_t e : w->order) w->ids[e] = std::move(out[e]);
  w->size = w->ids[t].size();
  return Status::Ok();
}

// Positions [0, n) stably sorted by `keys` (key, descending), where
// compare(key, a, b) three-way compares positions a and b. Serves the
// plain and the aggregated ORDER BY, and a GROUP BY's key order.
template <typename Key, typename CompareAt>
std::vector<uint32_t> SortedPositions(
    size_t n, const std::vector<std::pair<Key, bool>>& keys,
    const CompareAt& compare) {
  std::vector<uint32_t> positions(n);
  for (size_t i = 0; i < n; ++i) positions[i] = static_cast<uint32_t>(i);
  if (keys.empty()) return positions;
  std::stable_sort(positions.begin(), positions.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (const auto& [key, desc] : keys) {
                       int c = compare(key, a, b);
                       if (c != 0) return desc ? c > 0 : c < 0;
                     }
                     return false;
                   });
  return positions;
}

// One aggregate's running state in one group, accumulated in row order.
struct Accumulator {
  int64_t count = 0;  // non-null values
  size_t min = 0;     // working rows of the first minimum and maximum
  size_t max = 0;
  double sum = 0.0;
  int64_t int_sum = 0;
  Status error;  // the first non-numeric value SUM or AVG met
};

void Accumulate(const Cells& cells, AggregateFn fn, size_t row,
                Accumulator* acc) {
  if (cells.column->IsNull(cells.ids[row])) return;
  if (acc->count++ == 0) {
    acc->min = acc->max = row;
  } else if (fn == AggregateFn::kMin && cells.Compare(row, acc->min) < 0) {
    acc->min = row;
  } else if (fn == AggregateFn::kMax && cells.Compare(row, acc->max) > 0) {
    acc->max = row;
  }
  if (fn != AggregateFn::kSum && fn != AggregateFn::kAvg) return;
  Value v = cells.Get(row);
  Result<double> numeric = v.AsNumeric();
  if (!numeric.ok()) {
    if (acc->error.ok()) acc->error = numeric.status();
    return;
  }
  acc->sum += *numeric;
  if (v.type() == ValueType::kInt) acc->int_sum += v.AsInt();
}

// Grouping and aggregation over the working rows: used when the
// statement has aggregates, a GROUP BY or a HAVING. Plain select items
// must appear in the GROUP BY list; an aggregate query without GROUP BY
// forms a single group (one output row, even over empty input). Groups
// come out in key order, each group column read from its first row.
Result<Relation> Aggregate(const Working& w, const BoundQuery& bound) {
  const SelectStatement& stmt = *bound.statement;
  if (stmt.select_all) {
    return Status::InvalidArgument("SELECT * cannot be combined with "
                                   "aggregates or GROUP BY");
  }
  std::vector<size_t> group_cols;
  for (const ColumnRef& ref : stmt.group_by) {
    IQS_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(bound.schema, ref));
    group_cols.push_back(idx);
  }
  // Resolve select items; plain items must be grouped.
  std::vector<size_t> columns;  // per item; unused for COUNT(*)
  for (const SelectItem& item : stmt.select_list) {
    size_t column = 0;
    if (!(item.is_aggregate() && item.star)) {
      IQS_ASSIGN_OR_RETURN(column, ResolveColumn(bound.schema, item.column));
    }
    if (!item.is_aggregate() &&
        std::find(group_cols.begin(), group_cols.end(), column) ==
            group_cols.end()) {
      return Status::InvalidArgument(
          "column '" + item.column.ToString() +
          "' must appear in GROUP BY or inside an aggregate");
    }
    columns.push_back(column);
  }
  // Output schema: a group column keeps its type under its base name;
  // COUNT is an Int and AVG a Real; SUM, MIN and MAX keep the column's
  // type.
  std::vector<AttributeDef> attrs;
  for (size_t k = 0; k < columns.size(); ++k) {
    const SelectItem& item = stmt.select_list[k];
    const AttributeDef& source = bound.schema.attribute(columns[k]);
    if (!item.is_aggregate()) {
      attrs.push_back({BaseName(source.name), source.type, false});
      continue;
    }
    const ValueType type = item.star ? ValueType::kInt : source.type;
    if ((item.fn == AggregateFn::kSum || item.fn == AggregateFn::kAvg) &&
        type != ValueType::kInt && type != ValueType::kReal) {
      return Status::TypeError(std::string(AggregateFnName(item.fn)) +
                               " requires a numeric column");
    }
    attrs.push_back({item.ToString(),
                     item.fn == AggregateFn::kCount ? ValueType::kInt
                     : item.fn == AggregateFn::kAvg ? ValueType::kReal
                                                    : type,
                     false});
  }
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));

  // One pass in row order: each row finds its group and feeds the
  // group's accumulators, so float SUM/AVG add in row order.
  const size_t width = columns.size();
  std::vector<Cells> cells;
  for (size_t column : columns) cells.push_back(w.cells(bound, column));
  std::vector<std::pair<Cells, bool>> keys;
  std::vector<Cells> key_cells;
  for (size_t g : group_cols) {
    key_cells.push_back(w.cells(bound, g));
    keys.emplace_back(key_cells.back(), false);
  }
  RowGroups groups(std::move(key_cells));
  std::vector<int64_t> sizes;
  std::vector<Accumulator> accs;  // [group * width + item]
  for (size_t row = 0; row < w.size; ++row) {
    if ((row & 1023) == 0) IQS_GOV_CHECKPOINT("sql.aggregate");
    const size_t g = keys.empty() ? 0 : groups.Find(row);
    if (g == sizes.size()) {
      sizes.push_back(0);
      accs.resize(accs.size() + width);
    }
    ++sizes[g];
    for (size_t k = 0; k < width; ++k) {
      const SelectItem& item = stmt.select_list[k];
      if (item.is_aggregate() && !item.star) {
        Accumulate(cells[k], item.fn, row, &accs[g * width + k]);
      }
    }
  }
  if (keys.empty() && sizes.empty()) {
    sizes.push_back(0);
    accs.resize(width);
  }

  // Groups open in row order; they come out in key order, each group
  // column read from the group's first row (every group has one: plain
  // items imply a GROUP BY).
  const std::vector<size_t>& firsts = groups.firsts();
  std::vector<Tuple> rows;
  for (uint32_t g : SortedPositions(
           sizes.size(), keys, [&](const Cells& key, uint32_t a, uint32_t b) {
             return key.Compare(firsts[a], firsts[b]);
           })) {
    if ((rows.size() & 255) == 0) IQS_GOV_CHECKPOINT("sql.aggregate");
    std::vector<Value> row;
    for (size_t k = 0; k < width; ++k) {
      const SelectItem& item = stmt.select_list[k];
      const Accumulator& acc = accs[g * width + k];
      IQS_RETURN_IF_ERROR(acc.error);
      if (!item.is_aggregate()) {
        row.push_back(cells[k].Get(firsts[g]));
      } else if (item.fn == AggregateFn::kCount) {
        row.push_back(Value::Int(item.star ? sizes[g] : acc.count));
      } else if (acc.count == 0) {
        row.push_back(Value::Null());
      } else if (item.fn == AggregateFn::kMin ||
                 item.fn == AggregateFn::kMax) {
        row.push_back(
            cells[k].Get(item.fn == AggregateFn::kMin ? acc.min : acc.max));
      } else if (item.fn == AggregateFn::kAvg) {
        row.push_back(Value::Real(acc.sum / static_cast<double>(acc.count)));
      } else {
        row.push_back(schema.attribute(k).type == ValueType::kInt
                          ? Value::Int(acc.int_sum)
                          : Value::Real(acc.sum));
      }
    }
    rows.emplace_back(std::move(row));
  }

  if (stmt.having != nullptr) {
    // HAVING references select-list aggregates by their rendered name
    // and group columns by their base name — both resolve against the
    // aggregated schema.
    IQS_ASSIGN_OR_RETURN(PredicatePtr having,
                         BindPredicate(*stmt.having, schema));
    std::vector<Tuple> kept;
    for (Tuple& row : rows) {
      IQS_ASSIGN_OR_RETURN(bool keep, having->Eval(row));
      if (keep) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }
  // ORDER BY applies to the aggregated output (group columns). Output
  // columns carry base names, so a qualified sort key falls back to its
  // base name.
  std::vector<std::pair<size_t, bool>> order_keys;
  for (const OrderItem& item : stmt.order_by) {
    auto idx = ResolveColumn(schema, item.column);
    if (!idx.ok() && !item.column.qualifier.empty()) {
      idx = ResolveColumn(schema, ColumnRef{"", item.column.name});
    }
    if (!idx.ok()) return idx.status();
    order_keys.emplace_back(*idx, item.descending);
  }
  Relation out("result", std::move(schema));
  for (uint32_t r : SortedPositions(
           rows.size(), order_keys, [&rows](size_t c, uint32_t a, uint32_t b) {
             return rows[a].at(c).Compare(rows[b].at(c));
           })) {
    out.AppendUnchecked(std::move(rows[r]));
  }
  return out;
}

}  // namespace

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
  const BoundTable& entry = bound.tables[table];
  std::optional<std::vector<uint32_t>> candidates;
  if (!entry.is_virtual()) candidates = IndexRows(bound, table);
  stats_.index_prefiltered_tables += candidates.has_value();
  stats_.base_rows_loaded +=
      candidates.has_value() ? candidates->size() : entry.relation->size();
  const bool one_entry = bound.tables.size() == 1;
  std::vector<ColumnCondition> conditions;
  PredicatePtr residual;
  for (const BoundConjunct& c : bound.conjuncts) {
    if (c.column.table == table && IsScanCondition(c, snapshot)) {
      if (c.kind == BoundConjunct::Kind::kBetween) {
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
  if (candidates.has_value()) {
    return ColumnarFilter(snapshot, conditions, residual.get(),
                          std::move(*candidates));
  }
  ColumnarScanStats scan_stats;
  IQS_ASSIGN_OR_RETURN(
      std::vector<uint32_t> admitted,
      ColumnarScan(snapshot, conditions, residual.get(), &scan_stats));
  if (!entry.is_virtual()) {
    ++stats_.columnar_tables;
    stats_.columnar_blocks_total += scan_stats.blocks_total;
    stats_.columnar_blocks_pruned += scan_stats.blocks_pruned;
    IQS_COUNTER_INC("sql.execute.columnar_path");
    IQS_COUNTER_ADD("sql.execute.columnar_blocks_pruned",
                    scan_stats.blocks_pruned);
  }
  return admitted;
}

Result<Relation> SqlExecutor::ExecuteInternal(const BoundQuery& bound,
                                              bool schema_only) const {
  const SelectStatement& stmt = *bound.statement;
  const size_t entries = bound.tables.size();
  // Entries: each one's snapshot and the row ids its own conditions
  // admit. A stored entry reads its cached snapshot, through an index
  // when one serves a conjunct, else by the columnar scan; a sys.* entry
  // transposes the binder's row snapshot. A schema-only run reads
  // nothing: every later stage still runs, over no rows, so the output
  // shape (and any error) is a real empty scan's.
  Working w;
  w.snapshots.resize(entries);
  w.ids.resize(entries);
  for (size_t e = 0; e < entries && !schema_only; ++e) {
    const BoundTable& entry = bound.tables[e];
    if (entry.is_virtual()) {
      IQS_ASSIGN_OR_RETURN(ColumnarRelation transposed,
                           ColumnarRelation::Transpose(*entry.relation));
      w.snapshots[e] =
          std::make_shared<const ColumnarRelation>(std::move(transposed));
    } else {
      IQS_ASSIGN_OR_RETURN(w.snapshots[e],
                           db_->ColumnarSnapshot(entry.ref.name));
    }
    IQS_ASSIGN_OR_RETURN(w.ids[e], ScanRows(bound, e, *w.snapshots[e]));
    IQS_RETURN_IF_ERROR(exec::ChargeRows(
        "sql.scan", w.ids[e].size(), entry.relation->schema().size()));
  }

  // Greedy join plan: start with the first entry; repeatedly attach an
  // entry linked to the joined ones by the first unused equi-join
  // conjunct, else cross the next unjoined entry in.
  std::vector<bool> enforced(bound.conjuncts.size(), false);
  std::vector<bool> joined(entries, false);
  joined[0] = true;
  w.order = {0};
  w.size = w.ids[0].size();
  size_t width = bound.tables[0].relation->schema().size();
  for (size_t remaining = entries - 1; remaining > 0; --remaining) {
    std::optional<std::pair<Cells, size_t>> key;
    size_t t = 0;
    for (size_t k = 0; k < bound.conjuncts.size() && !key.has_value(); ++k) {
      const BoundConjunct& c = bound.conjuncts[k];
      if (c.kind != BoundConjunct::Kind::kColumns || c.op != CompareOp::kEq ||
          enforced[k]) {
        continue;
      }
      // One side must lie in the working rows, the other in entry t.
      const BoundColumn* in_working = &c.column;
      const BoundColumn* in_table = &c.other;
      if (!joined[in_working->table]) std::swap(in_working, in_table);
      if (!joined[in_working->table] || joined[in_table->table]) continue;
      t = in_table->table;
      key.emplace(w.cells(bound, bound.tables[in_working->table].offset +
                                     in_working->slot),
                  in_table->slot);
      enforced[k] = true;
    }
    if (!key.has_value()) {
      while (joined[t]) ++t;  // no conjunct reaches: cross product
    }
    width += bound.tables[t].relation->schema().size();
    IQS_RETURN_IF_ERROR(Join(&w, t, key, width));
    joined[t] = true;
  }

  // Filter: in a multi-entry FROM, the conjuncts no scan condition or
  // join key enforced run on the joined rows, in statement order (a
  // one-entry scan already applied the whole WHERE). Each row is laid
  // out as BoundQuery::schema, the layout the conjuncts are bound over.
  std::vector<const Predicate*> residual;
  for (size_t k = 0; k < bound.conjuncts.size() && entries > 1 && w.size > 0;
       ++k) {
    const BoundConjunct& c = bound.conjuncts[k];
    if (!enforced[k] && !IsScanCondition(c, *w.snapshots[c.column.table])) {
      residual.push_back(c.predicate.get());
    }
  }
  if (!residual.empty()) {
    Tuple row(std::vector<Value>(bound.schema.size()));
    size_t kept = 0;
    for (size_t i = 0; i < w.size; ++i) {
      if ((i & 1023) == 0) IQS_GOV_CHECKPOINT("sql.scan");
      for (size_t e = 0; e < entries; ++e) {
        const ColumnarRelation& snapshot = *w.snapshots[e];
        for (size_t c = 0; c < snapshot.schema().size(); ++c) {
          row.at(bound.tables[e].offset + c) =
              snapshot.column(c).Get(w.ids[e][i]);
        }
      }
      bool keep = true;
      for (size_t p = 0; p < residual.size() && keep; ++p) {
        IQS_ASSIGN_OR_RETURN(keep, residual[p]->Eval(row));
      }
      if (!keep) continue;
      for (std::vector<uint32_t>& ids : w.ids) ids[kept] = ids[i];
      ++kept;
    }
    for (std::vector<uint32_t>& ids : w.ids) ids.resize(kept);
    w.size = kept;
  }

  if (stmt.has_aggregates() || !stmt.group_by.empty() ||
      stmt.having != nullptr) {
    return Aggregate(w, bound);
  }

  // ORDER BY before projection, so sort keys need not be selected.
  std::vector<std::pair<Cells, bool>> keys;
  for (const OrderItem& item : stmt.order_by) {
    IQS_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(bound.schema, item.column));
    keys.emplace_back(w.cells(bound, idx), item.descending);
  }
  std::vector<uint32_t> positions = SortedPositions(
      w.size, keys, [](const Cells& key, uint32_t a, uint32_t b) {
        return key.Compare(a, b);
      });

  // Projection: SELECT * is every column in join order. Output columns
  // are named by their base name unless that would collide, in which
  // case the qualified name is kept.
  std::vector<size_t> indices;
  if (stmt.select_all) {
    for (size_t e : w.order) {
      for (size_t c = 0; c < bound.tables[e].relation->schema().size(); ++c) {
        indices.push_back(bound.tables[e].offset + c);
      }
    }
  } else {
    for (const SelectItem& item : stmt.select_list) {
      IQS_ASSIGN_OR_RETURN(size_t idx,
                           ResolveColumn(bound.schema, item.column));
      indices.push_back(idx);
    }
  }
  std::map<std::string, int> base_counts;
  for (size_t idx : indices) {
    base_counts[ToLower(BaseName(bound.schema.attribute(idx).name))] += 1;
  }
  std::vector<AttributeDef> out_attrs;
  std::vector<Cells> columns;
  for (size_t idx : indices) {
    AttributeDef def = bound.schema.attribute(idx);
    std::string base = BaseName(def.name);
    if (base_counts[ToLower(base)] == 1) def.name = base;
    out_attrs.push_back(std::move(def));
    columns.push_back(w.cells(bound, idx));
  }
  IQS_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  Relation result("result", std::move(out_schema));
  result.Reserve(w.size);
  RowGroups seen(columns);
  for (uint32_t i : positions) {
    if (stmt.distinct && seen.firsts()[seen.Find(i)] != i) continue;
    std::vector<Value> values;
    values.reserve(columns.size());
    for (const Cells& column : columns) values.push_back(column.Get(i));
    result.AppendUnchecked(Tuple(std::move(values)));
  }
  return result;
}

Result<Relation> SqlExecutor::ExecuteSql(const std::string& sql) const {
  IQS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return Execute(stmt);
}

}  // namespace iqs
