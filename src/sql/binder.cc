#include "sql/binder.h"

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace iqs {

namespace {

// One comparison operand after binding: a slot of the schema, or a
// constant.
struct Operand {
  std::optional<size_t> column;
  Value constant;

  ExprPtr ToExpr() const {
    return column.has_value() ? MakeColumn(*column) : MakeConstant(constant);
  }
  ValueType Type(const Schema& schema) const {
    return column.has_value() ? schema.attribute(*column).type
                              : constant.type();
  }
};

// Can values of these declared types meet in ApplyCompare? A null
// constant compares false with anything.
bool TypesComparable(ValueType a, ValueType b) {
  auto numeric = [](ValueType t) {
    return t == ValueType::kInt || t == ValueType::kReal;
  };
  return a == ValueType::kNull || b == ValueType::kNull || a == b ||
         (numeric(a) && numeric(b));
}

// Binds the operands of `a <op> b`: columns resolve left to right, then a
// literal facing a column is coerced to that column's type, then the two
// sides must be comparable: the TypeError ApplyCompare would raise on
// every row is raised once, here. LIKE matches rendered strings and is
// exempt.
Result<std::pair<Operand, Operand>> BindOperands(const Schema& schema,
                                                 CompareOp op,
                                                 const SqlOperand& a,
                                                 const SqlOperand& b) {
  Operand x{std::nullopt, a.literal};
  Operand y{std::nullopt, b.literal};
  if (a.kind == SqlOperand::Kind::kColumn) {
    IQS_ASSIGN_OR_RETURN(x.column, ResolveColumn(schema, a.column));
  }
  if (b.kind == SqlOperand::Kind::kColumn) {
    IQS_ASSIGN_OR_RETURN(y.column, ResolveColumn(schema, b.column));
  }
  if (!x.column.has_value() && y.column.has_value()) {
    IQS_ASSIGN_OR_RETURN(x.constant,
                         CoerceLiteral(a.literal, a.raw,
                                       schema.attribute(*y.column).type));
  }
  if (x.column.has_value() && !y.column.has_value()) {
    IQS_ASSIGN_OR_RETURN(y.constant,
                         CoerceLiteral(b.literal, b.raw,
                                       schema.attribute(*x.column).type));
  }
  ValueType xt = x.Type(schema);
  ValueType yt = y.Type(schema);
  if (op != CompareOp::kLike && !TypesComparable(xt, yt)) {
    return Status::TypeError(std::string("cannot compare ") +
                             ValueTypeName(xt) + " with " + ValueTypeName(yt));
  }
  return std::make_pair(std::move(x), std::move(y));
}

// The FROM entry and slot behind slot `index` of the bound layout.
BoundColumn Locate(const std::vector<BoundTable>& tables,
                   const Schema& schema, size_t index) {
  size_t t = tables.size() - 1;
  while (tables[t].offset > index) --t;
  return BoundColumn{t, index - tables[t].offset,
                     schema.attribute(index).type};
}

// Binds `expr` over `schema`. For a top-level conjunct of a FROM layout,
// `tables` and `shape` are non-null and `shape` receives the conjunct's
// column-first form.
Result<PredicatePtr> BindExpr(const SqlExpr& expr, const Schema& schema,
                              const std::vector<BoundTable>* tables,
                              BoundConjunct* shape) {
  switch (expr.kind) {
    case SqlExpr::Kind::kComparison: {
      IQS_ASSIGN_OR_RETURN(auto sides,
                           BindOperands(schema, expr.op, expr.lhs, expr.rhs));
      const auto& [l, r] = sides;
      // `'T%' LIKE Name` matches the constant against the pattern in
      // Name; it has no column-first form.
      const bool literal_like = expr.op == CompareOp::kLike && !l.column;
      if (shape != nullptr && (l.column || r.column) && !literal_like) {
        const Operand& col = l.column ? l : r;
        const Operand& val = l.column ? r : l;
        shape->column = Locate(*tables, schema, *col.column);
        shape->op = l.column ? expr.op : MirrorOp(expr.op);
        if (val.column.has_value()) {
          shape->kind = BoundConjunct::Kind::kColumns;
          shape->other = Locate(*tables, schema, *val.column);
        } else {
          shape->kind = BoundConjunct::Kind::kCompare;
          shape->constant = val.constant;
        }
      }
      return MakeCompare(expr.op, l.ToExpr(), r.ToExpr());
    }
    case SqlExpr::Kind::kBetween: {
      IQS_ASSIGN_OR_RETURN(
          auto low, BindOperands(schema, CompareOp::kGe, expr.lhs, expr.low));
      IQS_ASSIGN_OR_RETURN(
          auto high, BindOperands(schema, CompareOp::kLe, expr.lhs, expr.high));
      if (shape != nullptr && low.first.column && !low.second.column &&
          !high.second.column) {
        shape->kind = BoundConjunct::Kind::kBetween;
        shape->column = Locate(*tables, schema, *low.first.column);
        shape->constant = low.second.constant;
        shape->high = high.second.constant;
      }
      return MakeAnd(MakeCompare(CompareOp::kGe, low.first.ToExpr(),
                                 low.second.ToExpr()),
                     MakeCompare(CompareOp::kLe, high.first.ToExpr(),
                                 high.second.ToExpr()));
    }
    case SqlExpr::Kind::kAnd:
    case SqlExpr::Kind::kOr: {
      IQS_ASSIGN_OR_RETURN(PredicatePtr l,
                           BindExpr(*expr.left, schema, nullptr, nullptr));
      IQS_ASSIGN_OR_RETURN(PredicatePtr r,
                           BindExpr(*expr.right, schema, nullptr, nullptr));
      return expr.kind == SqlExpr::Kind::kAnd
                 ? MakeAnd(std::move(l), std::move(r))
                 : MakeOr(std::move(l), std::move(r));
    }
    case SqlExpr::Kind::kNot: {
      IQS_ASSIGN_OR_RETURN(PredicatePtr inner,
                           BindExpr(*expr.left, schema, nullptr, nullptr));
      return MakeNot(std::move(inner));
    }
  }
  return Status::Internal("unreachable SQL expression kind");
}

}  // namespace

std::string BaseName(const std::string& attribute) {
  size_t pos = attribute.rfind('.');
  return pos == std::string::npos ? attribute : attribute.substr(pos + 1);
}

Result<Value> CoerceLiteral(const Value& literal, const std::string& raw,
                            ValueType type) {
  if (literal.is_null()) return literal;
  if (literal.type() == type) return literal;
  switch (type) {
    case ValueType::kString:
      // Numeric literal against a CHAR column: keep the spelling.
      return Value::String(raw.empty() ? literal.ToString() : raw);
    case ValueType::kReal:
      if (literal.type() == ValueType::kInt) {
        return Value::Real(static_cast<double>(literal.AsInt()));
      }
      break;
    case ValueType::kInt:
      if (literal.type() == ValueType::kReal) return literal;  // numeric cmp ok
      if (literal.type() == ValueType::kString) {
        return Value::FromText(ValueType::kInt, literal.AsString());
      }
      break;
    case ValueType::kDate:
      if (literal.type() == ValueType::kString) {
        return Value::FromText(ValueType::kDate, literal.AsString());
      }
      break;
    default:
      break;
  }
  return Status::TypeError("cannot compare a " +
                           std::string(ValueTypeName(literal.type())) +
                           " literal with a " + ValueTypeName(type) +
                           " column");
}

Result<size_t> ResolveColumn(const Schema& schema, const ColumnRef& ref) {
  if (!ref.qualifier.empty()) {
    return schema.IndexOf(ref.qualifier + "." + ref.name);
  }
  size_t found = schema.size();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (EqualsIgnoreCase(BaseName(schema.attribute(i).name), ref.name)) {
      if (found != schema.size()) {
        return Status::InvalidArgument("column '" + ref.name +
                                       "' is ambiguous");
      }
      found = i;
    }
  }
  if (found == schema.size()) {
    return Status::NotFound("no column named '" + ref.name + "'");
  }
  return found;
}

Result<PredicatePtr> BindPredicate(const SqlExpr& expr, const Schema& schema) {
  return BindExpr(expr, schema, nullptr, nullptr);
}

Result<BoundQuery> Bind(const SelectStatement& stmt, const Database& db) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM list must not be empty");
  }
  BoundQuery q;
  q.statement = &stmt;
  std::map<std::string, std::shared_ptr<const Relation>> snapshots;
  std::set<std::string> names;
  std::vector<AttributeDef> attrs;
  for (const TableRef& ref : stmt.from) {
    BoundTable table;
    table.ref = ref;
    table.offset = attrs.size();
    if (db.IsVirtual(ref.name)) {
      std::shared_ptr<const Relation>& snapshot = snapshots[ToLower(ref.name)];
      if (snapshot == nullptr) {
        IQS_ASSIGN_OR_RETURN(Relation rows, db.MaterializeVirtual(ref.name));
        snapshot = std::make_shared<const Relation>(std::move(rows));
      }
      table.snapshot = snapshot;
      table.relation = snapshot.get();
    } else {
      IQS_ASSIGN_OR_RETURN(table.relation, db.Get(ref.name));
    }
    const std::string& effective = ref.effective_name();
    if (!names.insert(ToLower(effective)).second) {
      return Status::InvalidArgument("duplicate table name/alias '" +
                                     effective + "' in FROM");
    }
    for (AttributeDef attr : table.relation->schema().attributes()) {
      attr.name = effective + "." + attr.name;
      attr.is_key = false;
      attrs.push_back(std::move(attr));
    }
    q.tables.push_back(std::move(table));
  }
  q.schema = Schema(std::move(attrs));
  for (const SqlExpr* expr : TopLevelConjuncts(stmt.where.get())) {
    BoundConjunct conjunct;
    conjunct.expr = expr;
    IQS_ASSIGN_OR_RETURN(conjunct.predicate,
                         BindExpr(*expr, q.schema, &q.tables, &conjunct));
    q.conjuncts.push_back(std::move(conjunct));
  }
  return q;
}

}  // namespace iqs
