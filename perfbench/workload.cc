#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"
#include "testbed/fleet_generator.h"
#include "testbed/ship_db.h"

namespace perfbench {

using iqs::Value;

int Table::Column(const std::string& attr) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (iqs::EqualsIgnoreCase(columns[i], attr)) return static_cast<int>(i);
  }
  return -1;
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

iqs::Result<Table> CopyTable(const iqs::Database& db, const std::string& name,
                             bool with_rows) {
  IQS_ASSIGN_OR_RETURN(const iqs::Relation* rel, db.Get(name));
  Table table;
  table.name = rel->name();
  for (size_t i = 0; i < rel->schema().size(); ++i) {
    table.columns.push_back(rel->schema().attribute(i).name);
  }
  table.row_count = rel->size();
  if (!with_rows) return table;
  table.rows.reserve(rel->size());
  for (const iqs::Tuple& t : rel->rows()) {
    std::vector<Value> row;
    row.reserve(t.size());
    for (size_t i = 0; i < t.size(); ++i) row.push_back(t.at(i));
    table.rows.push_back(std::move(row));
  }
  return table;
}

const char* OpClassName(int cls) {
  static const char* kNames[] = {"point", "band",  "typed", "join",
                                 "agg",   "empty", "range", "write"};
  return cls >= 0 && cls <= kWrite ? kNames[cls] : "?";
}

namespace {

std::string Literal(const Value& v, std::optional<uint64_t> quote_seed) {
  if (v.type() == iqs::ValueType::kString) return "'" + v.AsString() + "'";
  std::string text = v.ToString();
  if (v.type() == iqs::ValueType::kInt && quote_seed.has_value() &&
      QuotedSpelling(*quote_seed, v.AsInt())) {
    return "'" + text + "'";
  }
  return text;
}

std::string Column(const QuerySpec& spec, const ColRef& ref) {
  if (spec.tables.size() == 1) return ref.attr;
  return spec.tables[ref.table] + "." + ref.attr;
}

const char* CmpText(Cmp op) {
  switch (op) {
    case Cmp::kEq: return " = ";
    case Cmp::kGt: return " > ";
    case Cmp::kGe: return " >= ";
    case Cmp::kLt: return " < ";
    case Cmp::kLe: return " <= ";
    case Cmp::kBetween: return " BETWEEN ";
  }
  return " ? ";
}

Cond MakeCond(int table, const char* attr, Cmp op, Value lo,
              Value hi = Value::Null()) {
  return Cond{ColRef{table, attr}, op, std::move(lo), std::move(hi)};
}

// Displacement domain of the fleet: Table 1's overall [min, max].
constexpr int64_t kMinDisp = 1720;
constexpr int64_t kMaxDisp = 81600;

// Builds one fleet query of class `cls` from two draws u, v in [0, 1).
QuerySpec FleetQuery(int cls, double u, double v, size_t hulls) {
  const auto& specs = iqs::Table1Specs();
  auto pick = [](double x, int64_t lo, int64_t hi) {  // in [lo, hi]
    return lo + static_cast<int64_t>(x * static_cast<double>(hi - lo + 1));
  };
  const iqs::FleetTypeSpec& spec = specs[pick(u, 0, specs.size() - 1)];
  QuerySpec q;
  q.cls = cls;
  q.tables = {"BATTLESHIP"};
  switch (cls) {
    case kPoint: {
      int64_t hull = pick(u, 100, 100 + static_cast<int64_t>(hulls) - 1);
      q.select = {{0, "Id"}, {0, "Name"}, {0, "Type"}, {0, "Displacement"}};
      q.conds = {MakeCond(0, "Name", Cmp::kEq,
                          Value::String("Hull " + std::to_string(hull)))};
      break;
    }
    case kBand: {
      int64_t width = pick(v, 50, 2000);
      int64_t lo = pick(u, kMinDisp, kMaxDisp - width);
      q.select = {{0, "Name"}, {0, "Displacement"}};
      q.conds = {MakeCond(0, "Displacement", Cmp::kBetween, Value::Int(lo),
                          Value::Int(lo + width))};
      break;
    }
    case kTyped: {
      q.select = {{0, "Name"}, {0, "Displacement"}};
      q.conds = {MakeCond(0, "Type", Cmp::kEq, Value::String(spec.type))};
      break;
    }
    case kJoin: {
      int64_t lo = pick(u, kMinDisp, kMaxDisp - 3000);
      q.tables = {"BATTLESHIP", "SHIPTYPE"};
      q.select = {{0, "Name"}, {1, "TypeName"}};
      q.joins = {JoinCond{{0, "Type"}, {1, "Type"}}};
      q.conds = {MakeCond(0, "Displacement", Cmp::kGe, Value::Int(lo)),
                 MakeCond(0, "Displacement", Cmp::kLe, Value::Int(lo + 3000))};
      break;
    }
    case kAgg: {
      q.select = {{0, "Type"}};
      q.group_count = true;
      q.order_by = true;
      q.conds = {MakeCond(0, "Displacement", Cmp::kGt,
                          Value::Int(pick(u, kMinDisp, kMaxDisp)))};
      break;
    }
    case kEmpty: {
      // Above the type's band, so induced rules prove the answer empty.
      int64_t x = spec.displacement_hi + pick(v, 1, 5000);
      q.select = {{0, "Name"}};
      q.conds = {MakeCond(0, "Type", Cmp::kEq, Value::String(spec.type)),
                 MakeCond(0, "Displacement", Cmp::kGt, Value::Int(x))};
      break;
    }
    case kRange: {
      q.select = {{0, "Name"}, {0, "Displacement"}};
      q.conds = {MakeCond(0, "Displacement", Cmp::kGe,
                          Value::Int(pick(u, kMinDisp, kMaxDisp)))};
      break;
    }
  }
  return q;
}

}  // namespace

bool QuotedSpelling(uint64_t seed, int64_t value) {
  return (Mix(seed ^ Mix(static_cast<uint64_t>(value))) & 15) == 0;
}

std::string RenderSql(const QuerySpec& spec,
                      std::optional<uint64_t> quote_seed) {
  if (!spec.fixed_sql.empty()) return spec.fixed_sql;
  std::string sql = "SELECT ";
  for (size_t i = 0; i < spec.select.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += Column(spec, spec.select[i]);
  }
  if (spec.group_count) sql += ", COUNT(*)";
  sql += " FROM ";
  for (size_t i = 0; i < spec.tables.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += spec.tables[i];
  }
  std::vector<std::string> where;
  for (const JoinCond& j : spec.joins) {
    where.push_back(Column(spec, j.left) + " = " + Column(spec, j.right));
  }
  for (const Cond& c : spec.conds) {
    std::string text = Column(spec, c.col) + CmpText(c.op) +
                       Literal(c.lo, quote_seed);
    if (c.op == Cmp::kBetween) text += " AND " + Literal(c.hi, quote_seed);
    where.push_back(std::move(text));
  }
  for (size_t i = 0; i < where.size(); ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    sql += where[i];
  }
  if (spec.group_count) sql += " GROUP BY " + Column(spec, spec.select[0]);
  if (spec.order_by) sql += " ORDER BY " + Column(spec, spec.select[0]);
  return sql;
}

bool HasQuotedLiteral(const QuerySpec& spec, uint64_t quote_seed) {
  for (const Cond& c : spec.conds) {
    for (const Value* v : {&c.lo, &c.hi}) {
      if (v->type() == iqs::ValueType::kInt &&
          QuotedSpelling(quote_seed, v->AsInt())) {
        return true;
      }
    }
  }
  return false;
}

const std::vector<WorkloadConfig>& Workloads() {
  // Client counts stay at or below half of a 4-core machine. ship-wire
  // draws from a hot set of 15 statements, so its list is short and
  // wraps: a longer one would only add the benchmark's own memory to
  // rss_peak_mb.
  static const std::vector<WorkloadConfig> kWorkloads = {
      {"fleet-scan", 4000, 400, true, 2, false, 0, 250},
      {"fleet-rules", 200, 1, false, 2, false, 0, 300},
      {"ship-wire", 0, 3, false, 2, true, 0, 1000},
      {"fleet-churn", 1000, 100, false, 1, false, 40, 400},
  };
  return kWorkloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<Op> FleetOps(const WorkloadConfig& config, uint64_t seed,
                         int client, size_t count, size_t hulls) {
  iqs::SplitMix64 rng(Mix(seed) ^ Mix(0x51ED0000u + client));
  auto unit = [&rng] { return static_cast<double>(rng.Next() >> 11) * 0x1p-53; };
  // Literals come from Weyl sequences with seeded starts: the k-th query
  // of a class draws frac(start + k * step). Every prefix of a class's
  // queries then covers its literal range evenly, so runs with different
  // seeds see the same spread of costs, and their percentiles agree.
  constexpr double kStepU = 0.6180339887498949;  // golden ratio - 1
  constexpr double kStepV = 0.4142135623730951;  // sqrt(2) - 1
  std::vector<double> start_u(kNumQueryClasses), start_v(kNumQueryClasses);
  for (int c = 0; c < kNumQueryClasses; ++c) {
    start_u[c] = unit();
    start_v[c] = unit();
  }
  std::vector<uint64_t> drawn(kNumQueryClasses);
  std::vector<Op> ops;
  ops.reserve(count);
  // Classes come in shuffled blocks of seven, so every prefix of the
  // list holds each class in (almost) equal share.
  std::vector<int> block;
  int writes = 0;
  while (ops.size() < count) {
    if (config.write_every > 0 &&
        ops.size() % config.write_every ==
            static_cast<size_t>(config.write_every - 1)) {
      Op op;
      op.cls = kWrite;
      op.write_index = writes++;
      ops.push_back(std::move(op));
      continue;
    }
    if (block.empty()) {
      for (int c = 0; c < kNumQueryClasses; ++c) block.push_back(c);
      for (size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[rng.Next() % (i + 1)]);
      }
    }
    Op op;
    op.cls = block.back();
    block.pop_back();
    const double k = static_cast<double>(drawn[op.cls]++);
    double u = start_u[op.cls] + k * kStepU;
    double v = start_v[op.cls] + k * kStepV;
    op.query = FleetQuery(op.cls, u - std::floor(u), v - std::floor(v), hulls);
    ops.push_back(std::move(op));
  }
  return ops;
}

const std::vector<QuerySpec>& ShipHotSet() {
  static const std::vector<QuerySpec>* kSet = [] {
    auto* set = new std::vector<QuerySpec>();
    auto add = [set](int cls, std::vector<std::string> tables,
                     std::vector<ColRef> select, std::vector<JoinCond> joins,
                     std::vector<Cond> conds, std::string fixed_sql = "") {
      QuerySpec q;
      q.cls = cls;
      q.tables = std::move(tables);
      q.select = std::move(select);
      q.joins = std::move(joins);
      q.conds = std::move(conds);
      q.fixed_sql = std::move(fixed_sql);
      set->push_back(std::move(q));
    };
    const std::vector<JoinCond> sub_class = {
        JoinCond{{0, "CLASS"}, {1, "CLASS"}}};
    // Paper Examples 1-3, verbatim.
    add(kJoin, {"SUBMARINE", "CLASS"},
        {{0, "ID"}, {0, "NAME"}, {0, "CLASS"}, {1, "TYPE"}}, sub_class,
        {MakeCond(1, "DISPLACEMENT", Cmp::kGt, Value::Int(8000))},
        iqs::Example1Sql());
    add(kTyped, {"SUBMARINE", "CLASS"}, {{0, "NAME"}, {0, "CLASS"}}, sub_class,
        {MakeCond(1, "TYPE", Cmp::kEq, Value::String("SSBN"))},
        iqs::Example2Sql());
    add(kJoin, {"SUBMARINE", "CLASS", "INSTALL"},
        {{0, "NAME"}, {0, "CLASS"}, {1, "TYPE"}},
        {JoinCond{{0, "CLASS"}, {1, "CLASS"}}, JoinCond{{0, "ID"}, {2, "SHIP"}}},
        {MakeCond(2, "SONAR", Cmp::kEq, Value::String("BQS-04"))},
        iqs::Example3Sql());
    // Class templates.
    for (const char* name : {"Omaha", "Haddo"}) {
      add(kPoint, {"SUBMARINE"}, {{0, "Id"}, {0, "Name"}, {0, "Class"}}, {},
          {MakeCond(0, "Name", Cmp::kEq, Value::String(name))});
    }
    for (auto [lo, hi] : {std::pair{3000, 4500}, std::pair{6000, 8000}}) {
      add(kBand, {"CLASS"}, {{0, "ClassName"}, {0, "Displacement"}}, {},
          {MakeCond(0, "Displacement", Cmp::kBetween, Value::Int(lo),
                    Value::Int(hi))});
    }
    add(kTyped, {"CLASS"}, {{0, "ClassName"}, {0, "Displacement"}}, {},
        {MakeCond(0, "Type", Cmp::kEq, Value::String("SSN"))});
    add(kJoin, {"SUBMARINE", "CLASS"}, {{0, "Name"}, {1, "ClassName"}},
        sub_class, {MakeCond(1, "Displacement", Cmp::kLt, Value::Int(3000))});
    for (int x : {3000, 7000}) {
      QuerySpec q;
      q.cls = kAgg;
      q.tables = {"CLASS"};
      q.select = {{0, "Type"}};
      q.group_count = true;
      q.order_by = true;
      q.conds = {MakeCond(0, "Displacement", Cmp::kGt, Value::Int(x))};
      set->push_back(std::move(q));
    }
    add(kEmpty, {"CLASS"}, {{0, "ClassName"}}, {},
        {MakeCond(0, "Type", Cmp::kEq, Value::String("SSN")),
         MakeCond(0, "Displacement", Cmp::kGt, Value::Int(8000))});
    add(kEmpty, {"CLASS"}, {{0, "ClassName"}}, {},
        {MakeCond(0, "Type", Cmp::kEq, Value::String("SSBN")),
         MakeCond(0, "Displacement", Cmp::kLt, Value::Int(5000))});
    for (int x : {3700, 6000}) {
      add(kRange, {"CLASS"}, {{0, "ClassName"}, {0, "Displacement"}}, {},
          {MakeCond(0, "Displacement", Cmp::kGe, Value::Int(x))});
    }
    return set;
  }();
  return *kSet;
}

std::vector<int> ShipOps(uint64_t seed, int client, size_t count) {
  iqs::SplitMix64 rng(Mix(seed) ^ Mix(0x5E1F0000u + client));
  std::vector<int> ops(count);
  for (int& op : ops) {
    op = static_cast<int>(rng.Next() % ShipHotSet().size());
  }
  return ops;
}

QuerySpec ShipUnsoundRepro() {
  QuerySpec q;
  q.cls = kEmpty;
  q.tables = {"CLASS"};
  q.select = {{0, "ClassName"}};
  q.conds = {MakeCond(0, "Displacement", Cmp::kGt, Value::Int(3000)),
             MakeCond(0, "Type", Cmp::kEq, Value::String("SSN"))};
  q.fixed_sql =
      "SELECT ClassName FROM CLASS WHERE Displacement > '3000' AND "
      "Type = 'SSN'";
  return q;
}

QuerySpec ShipMixedBetween() {
  QuerySpec q;
  q.cls = kBand;
  q.tables = {"CLASS"};
  q.select = {{0, "ClassName"}};
  q.conds = {MakeCond(0, "Displacement", Cmp::kBetween, Value::Int(3000),
                      Value::Int(4000))};
  q.fixed_sql =
      "SELECT ClassName FROM CLASS WHERE Displacement BETWEEN '3000' AND 4000";
  return q;
}

std::vector<std::vector<Value>> WriteBatch(uint64_t seed, int k,
                                           int64_t first_hull) {
  iqs::SplitMix64 rng(Mix(seed) ^ Mix(0x3A17E000u + k));
  std::vector<std::vector<Value>> rows;
  int64_t hull = first_hull;
  for (const iqs::FleetTypeSpec& spec : iqs::Table1Specs()) {
    for (int i = 0; i < kShipsPerWrite / 12; ++i, ++hull) {
      char id[32];
      std::snprintf(id, sizeof(id), "%s%04lld", spec.type,
                    static_cast<long long>(hull));
      rows.push_back({Value::String(id),
                      Value::String("Hull " + std::to_string(hull)),
                      Value::String(spec.type), Value::String(spec.category),
                      Value::Int(rng.NextInRange(spec.displacement_lo,
                                                 spec.displacement_hi))});
    }
  }
  return rows;
}

}  // namespace perfbench
