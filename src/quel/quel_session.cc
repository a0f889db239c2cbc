#include "quel/quel_session.h"

#include <set>

#include "common/string_util.h"
#include "exec/exec_context.h"
#include "quel/quel_parser.h"
#include "sql/binder.h"
#include "sql/sql_executor.h"

namespace iqs {

namespace {

bool SameColumn(const ColumnRef& a, const ColumnRef& b) {
  return EqualsIgnoreCase(a.qualifier, b.qualifier) &&
         EqualsIgnoreCase(a.name, b.name);
}

}  // namespace

Result<QuelSession::ExecutionResult> QuelSession::ExecuteText(
    const std::string& text) {
  IQS_ASSIGN_OR_RETURN(QuelStatement stmt, ParseQuelStatement(text));
  return Execute(stmt);
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteScript(
    const std::string& text) {
  IQS_ASSIGN_OR_RETURN(std::vector<QuelStatement> statements,
                       ParseQuelScript(text));
  if (statements.empty()) {
    return Status::InvalidArgument("empty QUEL script");
  }
  ExecutionResult last;
  for (const QuelStatement& stmt : statements) {
    IQS_ASSIGN_OR_RETURN(last, Execute(stmt));
  }
  return last;
}

Result<QuelSession::ExecutionResult> QuelSession::Execute(
    const QuelStatement& statement) {
  switch (statement.kind) {
    case QuelStatement::Kind::kRange:
      return ExecuteRange(statement.range);
    case QuelStatement::Kind::kRetrieve:
      return ExecuteRetrieve(statement.retrieve);
    case QuelStatement::Kind::kDelete:
      return ExecuteDelete(statement.del);
    case QuelStatement::Kind::kAppend:
      return ExecuteAppend(statement.append);
  }
  return Status::Internal("unreachable QUEL statement kind");
}

Result<std::string> QuelSession::RelationOf(
    const std::string& variable) const {
  auto it = ranges_.find(ToLower(variable));
  if (it == ranges_.end()) {
    return Status::NotFound("no range declaration for tuple variable '" +
                            variable + "'");
  }
  return it->second;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteRange(
    const QuelRangeStatement& stmt) {
  if (db_->IsVirtual(stmt.relation)) {
    // Materialize once to validate the name and learn its registered
    // spelling; the snapshot itself is discarded — each retrieve takes a
    // fresh one.
    IQS_ASSIGN_OR_RETURN(Relation snapshot,
                         db_->MaterializeVirtual(stmt.relation));
    ranges_[ToLower(stmt.variable)] = snapshot.name();
    return ExecutionResult{};
  }
  IQS_ASSIGN_OR_RETURN(const Relation* rel, db_->Get(stmt.relation));
  ranges_[ToLower(stmt.variable)] = rel->name();
  return ExecutionResult{};
}

void QuelSession::AddVariable(const std::string& variable,
                              std::vector<std::string>* out) {
  for (const std::string& existing : *out) {
    if (EqualsIgnoreCase(existing, variable)) return;
  }
  out->push_back(variable);
}

void QuelSession::CollectVariables(const SqlExpr* expr,
                                   std::vector<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind == SqlExpr::Kind::kComparison) {
    for (const SqlOperand* side : {&expr->lhs, &expr->rhs}) {
      if (side->kind == SqlOperand::Kind::kColumn) {
        AddVariable(side->column.qualifier, out);
      }
    }
    return;
  }
  CollectVariables(expr->left.get(), out);
  CollectVariables(expr->right.get(), out);
}

Result<SelectStatement> QuelSession::Lower(
    const std::vector<std::string>& variables,
    const SqlExprPtr& where) const {
  SelectStatement select;
  for (const std::string& variable : variables) {
    IQS_ASSIGN_OR_RETURN(std::string relation, RelationOf(variable));
    select.from.push_back(TableRef{std::move(relation), variable});
  }
  select.where = where;
  return select;
}

Result<Relation> QuelSession::Run(const SelectStatement& select,
                                  ExecutionResult* out) const {
  IQS_GOV_CHECKPOINT("quel.scan");
  SqlExecutor executor(db_);
  IQS_ASSIGN_OR_RETURN(Relation rows, executor.Execute(select));
  out->columnar_blocks_total = executor.last_stats().columnar_blocks_total;
  out->columnar_blocks_pruned = executor.last_stats().columnar_blocks_pruned;
  return rows;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteRetrieve(
    const QuelRetrieveStatement& stmt) {
  if (stmt.targets.empty()) {
    return Status::InvalidArgument("retrieve needs a target list");
  }
  // Variables in first-use order: targets, then qualification.
  std::vector<std::string> variables;
  for (const QuelTarget& t : stmt.targets) {
    AddVariable(t.ref.qualifier, &variables);
  }
  CollectVariables(stmt.where.get(), &variables);
  IQS_ASSIGN_OR_RETURN(SelectStatement select, Lower(variables, stmt.where));
  select.distinct = stmt.unique;

  // The result attributes are named by the targets. The executor cannot
  // select one column twice (its output names would collide), so a
  // column two targets name is one select item; item_of[i] is target
  // i's.
  std::vector<AttributeDef> attrs;
  std::vector<size_t> item_of;
  for (const QuelTarget& target : stmt.targets) {
    attrs.push_back(AttributeDef{target.effective_name()});
    size_t item = 0;
    while (item < select.select_list.size() &&
           !SameColumn(select.select_list[item].column, target.ref)) {
      ++item;
    }
    if (item == select.select_list.size()) {
      select.select_list.push_back(SelectItem{.column = target.ref});
    }
    item_of.push_back(item);
  }
  // Duplicate target names fail here, before the qualification binds.
  IQS_RETURN_IF_ERROR(Schema::Create(attrs).status());
  for (const ColumnRef& ref : stmt.sort_by) {
    bool found = false;
    for (const QuelTarget& target : stmt.targets) {
      found = found || SameColumn(target.ref, ref);
    }
    if (!found) {
      return Status::InvalidArgument("sort attribute " + ref.ToString() +
                                     " is not in the target list");
    }
    select.order_by.push_back(OrderItem{ref, false});
  }

  ExecutionResult out;
  IQS_ASSIGN_OR_RETURN(Relation rows, Run(select, &out));
  for (size_t i = 0; i < attrs.size(); ++i) {
    attrs[i].type = rows.schema().attribute(item_of[i]).type;
  }
  Relation result(stmt.into.empty() ? "retrieve" : stmt.into,
                  Schema(std::move(attrs)));
  for (const Tuple& row : rows.rows()) {
    Tuple projected;
    for (size_t item : item_of) projected.Append(row.at(item));
    result.AppendUnchecked(std::move(projected));
  }
  if (!stmt.into.empty()) {
    if (db_->Contains(stmt.into)) {
      IQS_RETURN_IF_ERROR(db_->Drop(stmt.into));
    }
    IQS_RETURN_IF_ERROR(db_->AddRelation(result));
  }
  out.relation = std::move(result);
  return out;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteDelete(
    const QuelDeleteStatement& stmt) {
  IQS_ASSIGN_OR_RETURN(std::string target_name, RelationOf(stmt.variable));
  if (db_->IsVirtual(target_name)) {
    return Status::InvalidArgument("relation '" + target_name +
                                   "' is a virtual catalog relation and is "
                                   "read-only");
  }
  // SELECT DISTINCT <every attribute of the deleted variable> over the
  // deleted variable and the qualification's: the target tuples for
  // which some combination of the others qualifies. The qualification
  // sees only values, so a target row goes exactly when it equals one of
  // them. The scan runs before GetMutable, which would retire the
  // columnar snapshot it reads.
  std::vector<std::string> variables = {stmt.variable};
  CollectVariables(stmt.where.get(), &variables);
  IQS_ASSIGN_OR_RETURN(SelectStatement select, Lower(variables, stmt.where));
  IQS_ASSIGN_OR_RETURN(const Relation* target, db_->Get(target_name));
  select.distinct = true;
  for (const AttributeDef& attr : target->schema().attributes()) {
    select.select_list.push_back(
        SelectItem{.column = ColumnRef{stmt.variable, attr.name}});
  }
  ExecutionResult out;
  IQS_ASSIGN_OR_RETURN(Relation doomed, Run(select, &out));
  std::set<Tuple> doomed_rows(doomed.rows().begin(), doomed.rows().end());
  IQS_ASSIGN_OR_RETURN(Relation * rows, db_->GetMutable(target_name));
  out.affected = rows->DeleteWhere(
      [&doomed_rows](const Tuple& t) { return doomed_rows.count(t) > 0; });
  return out;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteAppend(
    const QuelAppendStatement& stmt) {
  if (db_->IsVirtual(stmt.relation)) {
    return Status::InvalidArgument("relation '" + stmt.relation +
                                   "' is a virtual catalog relation and is "
                                   "read-only");
  }
  IQS_ASSIGN_OR_RETURN(Relation * target, db_->GetMutable(stmt.relation));
  const Schema& schema = target->schema();
  std::vector<Value> row(schema.size(), Value::Null());
  for (size_t i = 0; i < stmt.attributes.size(); ++i) {
    IQS_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(stmt.attributes[i]));
    IQS_ASSIGN_OR_RETURN(row[idx],
                         CoerceLiteral(stmt.values[i], stmt.raw[i],
                                       schema.attribute(idx).type));
  }
  IQS_RETURN_IF_ERROR(target->Insert(Tuple(std::move(row))));
  ExecutionResult out;
  out.affected = 1;
  return out;
}

}  // namespace iqs
