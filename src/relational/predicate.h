#ifndef IQS_RELATIONAL_PREDICATE_H_
#define IQS_RELATIONAL_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace iqs {

// Comparison operators available in WHERE clauses and rule conditions.
// kLike is SQL pattern matching ('%' any sequence, '_' any single
// character, case-sensitive) over the string forms of both operands; it
// never describes an interval, so induction/inference skip it.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kLike,
};

const char* CompareOpSymbol(CompareOp op);

// The operator of the swapped comparison: `5 < x` is `x > 5`.
CompareOp MirrorOp(CompareOp op);

// SQL LIKE semantics: does `text` match `pattern`? Text is treated as
// UTF-8: '_' consumes one code point, not one byte (a malformed byte
// counts as one character).
bool LikeMatch(const std::string& text, const std::string& pattern);

// Applies `op` to two values. Comparisons involving null are false (a
// simplification of SQL's three-valued logic; the library never relies on
// NOT over null comparisons). Returns TypeError for incomparable domains.
Result<bool> ApplyCompare(CompareOp op, const Value& lhs, const Value& rhs);

// A scalar expression evaluated against a tuple: either a constant or a
// column reference already resolved to an attribute index.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual Result<Value> Eval(const Tuple& tuple) const = 0;
  virtual std::string ToString(const Schema* schema) const = 0;
};

class ConstantExpr : public Expr {
 public:
  explicit ConstantExpr(Value value) : value_(std::move(value)) {}
  Result<Value> Eval(const Tuple&) const override { return value_; }
  std::string ToString(const Schema*) const override;
  const Value& value() const { return value_; }

 private:
  Value value_;
};

class ColumnExpr : public Expr {
 public:
  explicit ColumnExpr(size_t index) : index_(index) {}
  Result<Value> Eval(const Tuple& tuple) const override;
  std::string ToString(const Schema* schema) const override;
  size_t index() const { return index_; }

 private:
  size_t index_;
};

// A boolean condition over a tuple.
class Predicate {
 public:
  virtual ~Predicate() = default;
  virtual Result<bool> Eval(const Tuple& tuple) const = 0;
  virtual std::string ToString(const Schema* schema) const = 0;
};

using PredicatePtr = std::shared_ptr<const Predicate>;
using ExprPtr = std::shared_ptr<const Expr>;

class TruePredicate : public Predicate {
 public:
  Result<bool> Eval(const Tuple&) const override { return true; }
  std::string ToString(const Schema*) const override { return "true"; }
};

class ComparePredicate : public Predicate {
 public:
  ComparePredicate(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<bool> Eval(const Tuple& tuple) const override;
  std::string ToString(const Schema* schema) const override;

  CompareOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class AndPredicate : public Predicate {
 public:
  AndPredicate(PredicatePtr lhs, PredicatePtr rhs)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<bool> Eval(const Tuple& tuple) const override;
  std::string ToString(const Schema* schema) const override;

  const PredicatePtr& lhs() const { return lhs_; }
  const PredicatePtr& rhs() const { return rhs_; }

 private:
  PredicatePtr lhs_;
  PredicatePtr rhs_;
};

class OrPredicate : public Predicate {
 public:
  OrPredicate(PredicatePtr lhs, PredicatePtr rhs)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<bool> Eval(const Tuple& tuple) const override;
  std::string ToString(const Schema* schema) const override;

  const PredicatePtr& lhs() const { return lhs_; }
  const PredicatePtr& rhs() const { return rhs_; }

 private:
  PredicatePtr lhs_;
  PredicatePtr rhs_;
};

class NotPredicate : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr inner) : inner_(std::move(inner)) {}
  Result<bool> Eval(const Tuple& tuple) const override;
  std::string ToString(const Schema* schema) const override;

  const PredicatePtr& inner() const { return inner_; }

 private:
  PredicatePtr inner_;
};

// Convenience builders.
ExprPtr MakeConstant(Value value);
ExprPtr MakeColumn(size_t index);
PredicatePtr MakeTrue();
PredicatePtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
PredicatePtr MakeAnd(PredicatePtr lhs, PredicatePtr rhs);
PredicatePtr MakeOr(PredicatePtr lhs, PredicatePtr rhs);
PredicatePtr MakeNot(PredicatePtr inner);

}  // namespace iqs

#endif  // IQS_RELATIONAL_PREDICATE_H_
