#include "quel/quel_parser.h"

#include "common/string_util.h"
#include "fault/failpoint.h"
#include "sql/sql_lexer.h"

namespace iqs {

namespace {

class QuelParser {
 public:
  explicit QuelParser(std::vector<SqlToken> tokens)
      : tokens_(std::move(tokens)) {}

  Result<std::vector<QuelStatement>> RunScript() {
    std::vector<QuelStatement> out;
    while (!AtEnd()) {
      if (Peek().IsSymbol(";")) {
        Advance();
        continue;
      }
      IQS_ASSIGN_OR_RETURN(QuelStatement stmt, ParseStatement());
      out.push_back(std::move(stmt));
    }
    return out;
  }

  Result<QuelStatement> RunSingle() {
    IQS_ASSIGN_OR_RETURN(QuelStatement stmt, ParseStatement());
    if (Peek().IsSymbol(";")) Advance();
    if (!AtEnd()) return Error("unexpected trailing input");
    return stmt;
  }

 private:
  const SqlToken& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const SqlToken& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == SqlTokenKind::kEnd; }

  Status Error(const std::string& msg) const {
    return Status::ParseError("QUEL near offset " +
                              std::to_string(Peek().position) + ": " + msg +
                              " (at '" + Peek().text + "')");
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!Peek().IsKeyword(kw)) return Error("expected '" + kw + "'");
    Advance();
    return Status::Ok();
  }
  Status ExpectSymbol(const std::string& s) {
    if (!Peek().IsSymbol(s)) return Error("expected '" + s + "'");
    Advance();
    return Status::Ok();
  }
  Result<std::string> ExpectIdent(const std::string& what) {
    if (Peek().kind != SqlTokenKind::kIdent) {
      return Status::ParseError("QUEL near offset " +
                                std::to_string(Peek().position) +
                                ": expected " + what);
    }
    return Advance().text;
  }
  // ident(.ident)* — relation names may be schema-qualified (sys.metrics).
  Result<std::string> ExpectDottedIdent(const std::string& what) {
    IQS_ASSIGN_OR_RETURN(std::string name, ExpectIdent(what));
    while (Peek().IsSymbol(".") && Peek(1).kind == SqlTokenKind::kIdent) {
      Advance();  // .
      name += "." + Advance().text;
    }
    return name;
  }

  Result<QuelStatement> ParseStatement() {
    QuelStatement stmt;
    if (Peek().IsKeyword("range")) {
      stmt.kind = QuelStatement::Kind::kRange;
      IQS_ASSIGN_OR_RETURN(stmt.range, ParseRange());
      return stmt;
    }
    if (Peek().IsKeyword("retrieve")) {
      stmt.kind = QuelStatement::Kind::kRetrieve;
      IQS_ASSIGN_OR_RETURN(stmt.retrieve, ParseRetrieve());
      return stmt;
    }
    if (Peek().IsKeyword("delete")) {
      stmt.kind = QuelStatement::Kind::kDelete;
      IQS_ASSIGN_OR_RETURN(stmt.del, ParseDelete());
      return stmt;
    }
    if (Peek().IsKeyword("append")) {
      stmt.kind = QuelStatement::Kind::kAppend;
      IQS_ASSIGN_OR_RETURN(stmt.append, ParseAppend());
      return stmt;
    }
    return Error("expected range, retrieve, delete, or append");
  }

  // range of r is RELATION
  Result<QuelRangeStatement> ParseRange() {
    Advance();  // range
    IQS_RETURN_IF_ERROR(ExpectKeyword("of"));
    QuelRangeStatement out;
    IQS_ASSIGN_OR_RETURN(out.variable, ExpectIdent("a tuple variable"));
    IQS_RETURN_IF_ERROR(ExpectKeyword("is"));
    IQS_ASSIGN_OR_RETURN(out.relation, ExpectDottedIdent("a relation name"));
    return out;
  }

  // var.attr, as a column qualified by its tuple variable.
  Result<ColumnRef> ParseAttrRef() {
    ColumnRef ref;
    IQS_ASSIGN_OR_RETURN(ref.qualifier, ExpectIdent("a tuple variable"));
    IQS_RETURN_IF_ERROR(ExpectSymbol("."));
    IQS_ASSIGN_OR_RETURN(ref.name, ExpectIdent("an attribute"));
    return ref;
  }

  // retrieve [into NAME] [unique] (targets) [where qual] [sort by refs]
  Result<QuelRetrieveStatement> ParseRetrieve() {
    Advance();  // retrieve
    QuelRetrieveStatement out;
    if (Peek().IsKeyword("into")) {
      Advance();
      IQS_ASSIGN_OR_RETURN(out.into, ExpectDottedIdent("a relation name"));
    }
    if (Peek().IsKeyword("unique")) {
      Advance();
      out.unique = true;
    }
    IQS_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      QuelTarget target;
      // [name =] var.attr — lookahead for the rename form.
      if (Peek().kind == SqlTokenKind::kIdent && Peek(1).IsSymbol("=")) {
        target.name = Advance().text;
        Advance();  // =
      }
      IQS_ASSIGN_OR_RETURN(target.ref, ParseAttrRef());
      out.targets.push_back(std::move(target));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    IQS_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (Peek().IsKeyword("where")) {
      Advance();
      IQS_ASSIGN_OR_RETURN(out.where, ParseOr());
    }
    if (Peek().IsKeyword("sort")) {
      Advance();
      IQS_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        IQS_ASSIGN_OR_RETURN(ColumnRef ref, ParseAttrRef());
        out.sort_by.push_back(std::move(ref));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    return out;
  }

  // delete r [where qual]
  Result<QuelDeleteStatement> ParseDelete() {
    Advance();  // delete
    QuelDeleteStatement out;
    IQS_ASSIGN_OR_RETURN(out.variable, ExpectIdent("a tuple variable"));
    if (Peek().IsKeyword("where")) {
      Advance();
      IQS_ASSIGN_OR_RETURN(out.where, ParseOr());
    }
    return out;
  }

  // append to NAME (Attr = value, ...)
  Result<QuelAppendStatement> ParseAppend() {
    Advance();  // append
    IQS_RETURN_IF_ERROR(ExpectKeyword("to"));
    QuelAppendStatement out;
    IQS_ASSIGN_OR_RETURN(out.relation, ExpectDottedIdent("a relation name"));
    IQS_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      IQS_ASSIGN_OR_RETURN(std::string attr, ExpectIdent("an attribute"));
      IQS_RETURN_IF_ERROR(ExpectSymbol("="));
      IQS_ASSIGN_OR_RETURN(SqlOperand value, ParseOperand());
      if (value.kind == SqlOperand::Kind::kColumn) {
        return Error("append values must be constants");
      }
      out.attributes.push_back(std::move(attr));
      out.values.push_back(std::move(value.literal));
      out.raw.push_back(std::move(value.raw));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    IQS_RETURN_IF_ERROR(ExpectSymbol(")"));
    return out;
  }

  Result<SqlExprPtr> ParseOr() {
    IQS_ASSIGN_OR_RETURN(SqlExprPtr left, ParseAnd());
    while (Peek().IsKeyword("or")) {
      Advance();
      IQS_ASSIGN_OR_RETURN(SqlExprPtr right, ParseAnd());
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kOr;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  Result<SqlExprPtr> ParseAnd() {
    IQS_ASSIGN_OR_RETURN(SqlExprPtr left, ParseNot());
    while (Peek().IsKeyword("and")) {
      Advance();
      IQS_ASSIGN_OR_RETURN(SqlExprPtr right, ParseNot());
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kAnd;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  Result<SqlExprPtr> ParseNot() {
    if (Peek().IsKeyword("not")) {
      Advance();
      IQS_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseNot());
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExpr::Kind::kNot;
      node->left = std::move(inner);
      return node;
    }
    if (Peek().IsSymbol("(")) {
      Advance();
      IQS_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseOr());
      IQS_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    return ParseComparison();
  }

  Result<SqlExprPtr> ParseComparison() {
    auto node = std::make_shared<SqlExpr>();
    node->kind = SqlExpr::Kind::kComparison;
    IQS_ASSIGN_OR_RETURN(node->lhs, ParseOperand());
    if (Peek().IsSymbol("=")) {
      node->op = CompareOp::kEq;
    } else if (Peek().IsSymbol("!=")) {
      node->op = CompareOp::kNe;
    } else if (Peek().IsSymbol("<=")) {
      node->op = CompareOp::kLe;
    } else if (Peek().IsSymbol(">=")) {
      node->op = CompareOp::kGe;
    } else if (Peek().IsSymbol("<")) {
      node->op = CompareOp::kLt;
    } else if (Peek().IsSymbol(">")) {
      node->op = CompareOp::kGt;
    } else {
      return Error("expected a comparison operator");
    }
    Advance();
    IQS_ASSIGN_OR_RETURN(node->rhs, ParseOperand());
    return node;
  }

  Result<SqlOperand> ParseOperand() {
    const SqlToken& t = Peek();
    switch (t.kind) {
      case SqlTokenKind::kIdent: {
        IQS_ASSIGN_OR_RETURN(ColumnRef ref, ParseAttrRef());
        return SqlOperand::Column(std::move(ref));
      }
      case SqlTokenKind::kString:
        Advance();
        return SqlOperand::Literal(Value::String(t.text), t.text);
      case SqlTokenKind::kInt:
      case SqlTokenKind::kReal: {
        IQS_ASSIGN_OR_RETURN(
            Value v, Value::FromText(t.kind == SqlTokenKind::kInt
                                         ? ValueType::kInt
                                         : ValueType::kReal,
                                     t.text));
        Advance();
        return SqlOperand::Literal(std::move(v), t.text);
      }
      default:
        return Error("expected an attribute reference or constant");
    }
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<QuelStatement> ParseQuelStatement(const std::string& text) {
  IQS_FAILPOINT("quel.parse");
  IQS_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, LexSql(text));
  QuelParser parser(std::move(tokens));
  return parser.RunSingle();
}

Result<std::vector<QuelStatement>> ParseQuelScript(const std::string& text) {
  IQS_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, LexSql(text));
  QuelParser parser(std::move(tokens));
  return parser.RunScript();
}

}  // namespace iqs
