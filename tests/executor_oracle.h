#ifndef IQS_TESTS_EXECUTOR_ORACLE_H_
#define IQS_TESTS_EXECUTOR_ORACLE_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "sql/binder.h"
#include "tests/test_util.h"

namespace iqs {
namespace testing_util {

// The row operators the batch executor replaced, kept as the oracle of
// the executor differential: the whole SELECT over whole Tuples. The
// joined, filtered rows come from TupleAtATimeJoin (FROM order); GROUP BY
// groups them through a std::map<Tuple, rows> and accumulates each group
// row by row, HAVING and ORDER BY run over the aggregated Tuples, a plain
// ORDER BY stable-sorts the joined Tuples, and DISTINCT keeps first
// occurrences through a std::set<Tuple>. The result has the executor's
// schema (names and types), except that SELECT * over several entries
// lists its columns in FROM order rather than in join order.
class ExecutorOracle {
 public:
  static Result<Relation> Run(const Database& db, const SelectStatement& stmt) {
    IQS_ASSIGN_OR_RETURN(BoundQuery bound, Bind(stmt, db));
    IQS_ASSIGN_OR_RETURN(std::vector<Tuple> joined, TupleAtATimeJoin(bound));
    Relation working("working", bound.schema);
    for (Tuple& row : joined) working.AppendUnchecked(std::move(row));
    if (stmt.has_aggregates() || !stmt.group_by.empty() ||
        stmt.having != nullptr) {
      IQS_ASSIGN_OR_RETURN(Relation aggregated, Aggregate(working, stmt));
      if (stmt.having != nullptr) {
        IQS_ASSIGN_OR_RETURN(PredicatePtr having,
                             BindPredicate(*stmt.having, aggregated.schema()));
        Relation filtered(aggregated.name(), aggregated.schema());
        for (const Tuple& row : aggregated.rows()) {
          IQS_ASSIGN_OR_RETURN(bool keep, having->Eval(row));
          if (keep) filtered.AppendUnchecked(row);
        }
        aggregated = std::move(filtered);
      }
      if (stmt.order_by.empty()) return aggregated;
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
      return Sorted(aggregated, keys);
    }
    if (!stmt.order_by.empty()) {
      std::vector<std::pair<size_t, bool>> keys;
      for (const OrderItem& item : stmt.order_by) {
        IQS_ASSIGN_OR_RETURN(size_t idx,
                             ResolveColumn(working.schema(), item.column));
        keys.emplace_back(idx, item.descending);
      }
      working = Sorted(working, keys);
    }
    std::vector<size_t> indices;
    if (stmt.select_all) {
      for (size_t i = 0; i < working.schema().size(); ++i) {
        indices.push_back(i);
      }
    } else {
      for (const SelectItem& item : stmt.select_list) {
        IQS_ASSIGN_OR_RETURN(size_t idx,
                             ResolveColumn(working.schema(), item.column));
        indices.push_back(idx);
      }
    }
    std::map<std::string, int> base_counts;
    for (size_t idx : indices) {
      base_counts[ToLower(BaseName(working.schema().attribute(idx).name))] +=
          1;
    }
    std::vector<AttributeDef> out_attrs;
    for (size_t idx : indices) {
      AttributeDef def = working.schema().attribute(idx);
      std::string base = BaseName(def.name);
      if (base_counts[ToLower(base)] == 1) def.name = base;
      out_attrs.push_back(std::move(def));
    }
    IQS_ASSIGN_OR_RETURN(Schema out_schema,
                         Schema::Create(std::move(out_attrs)));
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

 private:
  static Relation Sorted(const Relation& rel,
                         const std::vector<std::pair<size_t, bool>>& keys) {
    std::vector<Tuple> rows = rel.rows();
    std::stable_sort(rows.begin(), rows.end(),
                     [&keys](const Tuple& a, const Tuple& b) {
                       for (const auto& [idx, desc] : keys) {
                         int c = a.at(idx).Compare(b.at(idx));
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    Relation sorted(rel.name(), rel.schema());
    for (Tuple& t : rows) sorted.AppendUnchecked(std::move(t));
    return sorted;
  }

  static Result<Relation> Aggregate(const Relation& working,
                                    const SelectStatement& stmt) {
    if (stmt.select_all) {
      return Status::InvalidArgument("SELECT * cannot be combined with "
                                     "aggregates or GROUP BY");
    }
    std::vector<size_t> group_cols;
    for (const ColumnRef& ref : stmt.group_by) {
      IQS_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(working.schema(), ref));
      group_cols.push_back(idx);
    }
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
      if (!item.is_aggregate() &&
          std::find(group_cols.begin(), group_cols.end(), bound.column) ==
              group_cols.end()) {
        return Status::InvalidArgument(
            "column '" + item.column.ToString() +
            "' must appear in GROUP BY or inside an aggregate");
      }
      items.push_back(bound);
    }
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
        ValueType source = working.schema().attribute(bound.column).type;
        switch (item.fn) {
          case AggregateFn::kCount:
            def.type = ValueType::kInt;
            break;
          case AggregateFn::kMin:
          case AggregateFn::kMax:
            def.type = source;
            break;
          case AggregateFn::kSum:
            def.type =
                source == ValueType::kInt ? ValueType::kInt : ValueType::kReal;
            break;
          case AggregateFn::kAvg:
            def.type = ValueType::kReal;
            break;
          case AggregateFn::kNone:
            break;
        }
        if ((item.fn == AggregateFn::kSum || item.fn == AggregateFn::kAvg) &&
            source != ValueType::kInt && source != ValueType::kReal) {
          return Status::TypeError(std::string(AggregateFnName(item.fn)) +
                                   " requires a numeric column");
        }
      }
      attrs.push_back(std::move(def));
    }
    IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
    Relation out("result", std::move(schema));

    std::map<Tuple, std::vector<size_t>> groups;
    for (size_t r = 0; r < working.size(); ++r) {
      Tuple key;
      for (size_t g : group_cols) key.Append(working.row(r).at(g));
      groups[std::move(key)].push_back(r);
    }
    if (group_cols.empty() && groups.empty()) groups[Tuple()] = {};
    for (const auto& [key, rows] : groups) {
      Tuple result_row;
      for (const BoundItem& bound : items) {
        const SelectItem& item = *bound.item;
        if (!item.is_aggregate()) {
          result_row.Append(rows.empty()
                                ? Value::Null()
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
        const bool sum_is_int =
            working.schema().attribute(bound.column).type == ValueType::kInt;
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
            result_row.Append(count == 0   ? Value::Null()
                              : sum_is_int ? Value::Int(int_sum)
                                           : Value::Real(sum));
            break;
          case AggregateFn::kAvg:
            result_row.Append(
                count == 0
                    ? Value::Null()
                    : Value::Real(sum / static_cast<double>(count)));
            break;
          case AggregateFn::kNone:
            break;
        }
      }
      out.AppendUnchecked(std::move(result_row));
    }
    return out;
  }
};

}  // namespace testing_util
}  // namespace iqs

#endif  // IQS_TESTS_EXECUTOR_ORACLE_H_
