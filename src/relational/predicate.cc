#include "relational/predicate.h"

namespace iqs {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kLike:
      return "LIKE";
  }
  return "?";
}

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // kEq/kNe are symmetric; kLike is never mirrored
  }
}

namespace {

// Bytes occupied by the UTF-8 code point starting at text[t]: the lead
// byte plus however many of its declared continuation bytes are actually
// present. A stray continuation byte or truncated sequence counts as a
// single one-byte character.
size_t Utf8CharLen(const std::string& text, size_t t) {
  unsigned char lead = static_cast<unsigned char>(text[t]);
  size_t want = 1;
  if ((lead & 0xE0) == 0xC0) {
    want = 2;
  } else if ((lead & 0xF0) == 0xE0) {
    want = 3;
  } else if ((lead & 0xF8) == 0xF0) {
    want = 4;
  }
  size_t len = 1;
  while (len < want && t + len < text.size() &&
         (static_cast<unsigned char>(text[t + len]) & 0xC0) == 0x80) {
    ++len;
  }
  return len;
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative greedy matcher with backtracking over the last '%': the
  // classic O(n*m) wildcard algorithm, sufficient for catalog queries.
  // '_' consumes one UTF-8 code point of the text, not one byte.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      t += pattern[p] == '_' ? Utf8CharLen(text, t) : 1;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<bool> ApplyCompare(CompareOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return false;
  if (op == CompareOp::kLike) {
    // LIKE matches over the rendered string forms, so integer-typed
    // catalog columns still answer `value LIKE '1%'`.
    return LikeMatch(lhs.ToString(), rhs.ToString());
  }
  if (!lhs.ComparableWith(rhs)) {
    return Status::TypeError(std::string("cannot compare ") +
                             ValueTypeName(lhs.type()) + " with " +
                             ValueTypeName(rhs.type()));
  }
  int c = lhs.Compare(rhs);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
    case CompareOp::kLike:
      break;  // handled above
  }
  return Status::Internal("unreachable compare op");
}

std::string ConstantExpr::ToString(const Schema*) const {
  if (value_.type() == ValueType::kString) {
    return "'" + value_.ToString() + "'";
  }
  return value_.ToString();
}

Result<Value> ColumnExpr::Eval(const Tuple& tuple) const {
  if (index_ >= tuple.size()) {
    return Status::Internal("column index " + std::to_string(index_) +
                            " out of range for tuple of arity " +
                            std::to_string(tuple.size()));
  }
  return tuple.at(index_);
}

std::string ColumnExpr::ToString(const Schema* schema) const {
  if (schema != nullptr && index_ < schema->size()) {
    return schema->attribute(index_).name;
  }
  return "$" + std::to_string(index_);
}

Result<bool> ComparePredicate::Eval(const Tuple& tuple) const {
  IQS_ASSIGN_OR_RETURN(Value l, lhs_->Eval(tuple));
  IQS_ASSIGN_OR_RETURN(Value r, rhs_->Eval(tuple));
  return ApplyCompare(op_, l, r);
}

std::string ComparePredicate::ToString(const Schema* schema) const {
  return lhs_->ToString(schema) + " " + CompareOpSymbol(op_) + " " +
         rhs_->ToString(schema);
}

Result<bool> AndPredicate::Eval(const Tuple& tuple) const {
  IQS_ASSIGN_OR_RETURN(bool l, lhs_->Eval(tuple));
  if (!l) return false;
  return rhs_->Eval(tuple);
}

std::string AndPredicate::ToString(const Schema* schema) const {
  return "(" + lhs_->ToString(schema) + " AND " + rhs_->ToString(schema) + ")";
}

Result<bool> OrPredicate::Eval(const Tuple& tuple) const {
  IQS_ASSIGN_OR_RETURN(bool l, lhs_->Eval(tuple));
  if (l) return true;
  return rhs_->Eval(tuple);
}

std::string OrPredicate::ToString(const Schema* schema) const {
  return "(" + lhs_->ToString(schema) + " OR " + rhs_->ToString(schema) + ")";
}

Result<bool> NotPredicate::Eval(const Tuple& tuple) const {
  IQS_ASSIGN_OR_RETURN(bool v, inner_->Eval(tuple));
  return !v;
}

std::string NotPredicate::ToString(const Schema* schema) const {
  return "NOT " + inner_->ToString(schema);
}

ExprPtr MakeConstant(Value value) {
  return std::make_shared<ConstantExpr>(std::move(value));
}
ExprPtr MakeColumn(size_t index) { return std::make_shared<ColumnExpr>(index); }
PredicatePtr MakeTrue() { return std::make_shared<TruePredicate>(); }
PredicatePtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ComparePredicate>(op, std::move(lhs),
                                            std::move(rhs));
}
PredicatePtr MakeAnd(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_shared<AndPredicate>(std::move(lhs), std::move(rhs));
}
PredicatePtr MakeOr(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_shared<OrPredicate>(std::move(lhs), std::move(rhs));
}
PredicatePtr MakeNot(PredicatePtr inner) {
  return std::make_shared<NotPredicate>(std::move(inner));
}

}  // namespace iqs
