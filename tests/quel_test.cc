#include "quel/quel_session.h"

#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "quel/quel_parser.h"
#include "sql/sql_executor.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::ColumnText;

class QuelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = BuildShipDatabase();
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    session_ = std::make_unique<QuelSession>(db_.get());
  }

  Relation Run(const std::string& text) {
    auto result = session_->ExecuteText(text);
    EXPECT_TRUE(result.ok()) << text << " -> " << result.status();
    return result.ok() ? std::move(result->relation) : Relation();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<QuelSession> session_;
};

TEST_F(QuelTest, ParserStatementKinds) {
  ASSERT_OK_AND_ASSIGN(QuelStatement range,
                       ParseQuelStatement("range of r is SUBMARINE"));
  EXPECT_EQ(range.kind, QuelStatement::Kind::kRange);
  EXPECT_EQ(range.range.variable, "r");
  EXPECT_EQ(range.range.relation, "SUBMARINE");

  ASSERT_OK_AND_ASSIGN(
      QuelStatement retrieve,
      ParseQuelStatement("retrieve into S unique (r.Class, r.Id) "
                         "where r.Id != \"SSBN130\" sort by r.Class"));
  EXPECT_EQ(retrieve.kind, QuelStatement::Kind::kRetrieve);
  EXPECT_EQ(retrieve.retrieve.into, "S");
  EXPECT_TRUE(retrieve.retrieve.unique);
  ASSERT_EQ(retrieve.retrieve.targets.size(), 2u);
  EXPECT_EQ(retrieve.retrieve.targets[0].effective_name(), "Class");
  ASSERT_EQ(retrieve.retrieve.sort_by.size(), 1u);

  ASSERT_OK_AND_ASSIGN(QuelStatement del,
                       ParseQuelStatement("delete s where s.X = 1"));
  EXPECT_EQ(del.kind, QuelStatement::Kind::kDelete);

  ASSERT_OK_AND_ASSIGN(
      QuelStatement append,
      ParseQuelStatement("append to S (X = 1, Y = \"a\")"));
  EXPECT_EQ(append.kind, QuelStatement::Kind::kAppend);
  ASSERT_EQ(append.append.attributes.size(), 2u);
}

TEST_F(QuelTest, ParserErrors) {
  EXPECT_FALSE(ParseQuelStatement("").ok());
  EXPECT_FALSE(ParseQuelStatement("range r is T").ok());
  EXPECT_FALSE(ParseQuelStatement("retrieve (r.X").ok());
  EXPECT_FALSE(ParseQuelStatement("retrieve (X)").ok());  // needs var.attr
  EXPECT_FALSE(ParseQuelStatement("append to S (X)").ok());
  EXPECT_FALSE(
      ParseQuelStatement("append to S (X = r.Y)").ok());  // constants only
  EXPECT_FALSE(ParseQuelStatement("select * from T").ok());
  EXPECT_FALSE(
      ParseQuelStatement("range of r is T trailing garbage").ok());
}

TEST_F(QuelTest, NegativeNumericLiterals) {
  ASSERT_OK_AND_ASSIGN(QuelStatement eq,
                       ParseQuelStatement("retrieve (r.K) where r.K = -3"));
  EXPECT_EQ(eq.retrieve.where->rhs.literal, Value::Int(-3));

  ASSERT_OK_AND_ASSIGN(
      QuelStatement band,
      ParseQuelStatement("retrieve (r.K) where r.K >= -5 and r.K <= -1"));
  EXPECT_EQ(band.retrieve.where->left->rhs.literal, Value::Int(-5));
  EXPECT_EQ(band.retrieve.where->right->rhs.literal, Value::Int(-1));

  ASSERT_OK_AND_ASSIGN(QuelStatement real,
                       ParseQuelStatement("retrieve (r.D) where r.D > -2.5"));
  EXPECT_EQ(real.retrieve.where->op, CompareOp::kGt);
  EXPECT_EQ(real.retrieve.where->rhs.literal, Value::Real(-2.5));

  // "--" still starts a comment, digits or not.
  ASSERT_OK_AND_ASSIGN(QuelStatement comment,
                       ParseQuelStatement("retrieve (r.K) where r.K = 1 --3"));
  EXPECT_EQ(comment.retrieve.where->rhs.literal, Value::Int(1));

  ASSERT_OK_AND_ASSIGN(QuelStatement append,
                       ParseQuelStatement("append to S (K = -7)"));
  ASSERT_EQ(append.append.values.size(), 1u);
  EXPECT_EQ(append.append.values[0], Value::Int(-7));

  // A negative bound runs end to end: no class displaces less than zero.
  Run("range of c is CLASS");
  EXPECT_EQ(Run("retrieve (c.Class) where c.Displacement > -1").size(), 13u);
  EXPECT_EQ(Run("retrieve (c.Class) where c.Displacement < -1").size(), 0u);
}

TEST_F(QuelTest, RangeRequiresRelation) {
  EXPECT_FALSE(session_->ExecuteText("range of r is NOPE").ok());
  EXPECT_OK(session_->ExecuteText("range of r is SUBMARINE").status());
  ASSERT_OK_AND_ASSIGN(std::string rel, session_->RelationOf("r"));
  EXPECT_EQ(rel, "SUBMARINE");
  EXPECT_FALSE(session_->RelationOf("zz").ok());
}

TEST_F(QuelTest, RetrieveProjectsAndSorts) {
  Run("range of r is CLASS");
  Relation out = Run("retrieve (r.Class, r.Displacement) sort by r.Class");
  ASSERT_EQ(out.size(), 13u);
  EXPECT_EQ(out.schema().attribute(0).name, "Class");
  EXPECT_EQ(out.row(0).at(0), Value::String("0101"));
  EXPECT_EQ(out.row(12).at(0), Value::String("1301"));
}

TEST_F(QuelTest, RetrieveUniqueAndRename) {
  Run("range of r is CLASS");
  Relation out = Run("retrieve unique (t = r.Type)");
  EXPECT_EQ(out.schema().attribute(0).name, "t");
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(QuelTest, RetrieveWhereWithCharCoercion) {
  Run("range of r is SUBMARINE");
  // Unquoted 0204 against the CHAR[4] class attribute.
  Relation out = Run("retrieve (r.Id) where r.Class = 0204");
  EXPECT_EQ(out.size(), 6u);
}

TEST_F(QuelTest, RetrieveJoinAcrossVariables) {
  Run("range of s is SUBMARINE");
  Run("range of c is CLASS");
  Relation out =
      Run("retrieve (s.Name, c.Type) where s.Class = c.Class and "
          "c.Displacement > 8000");
  EXPECT_EQ(out.size(), 2u);
  std::vector<std::string> names = ColumnText(out, "Name");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"Rhode Island", "Typhoon"}));
}

TEST_F(QuelTest, RetrieveIntoMaterializesAndReplaces) {
  Run("range of r is CLASS");
  Run("retrieve into CLASSTYPES unique (r.Type)");
  ASSERT_TRUE(db_->Contains("CLASSTYPES"));
  // Running again replaces rather than failing.
  Run("retrieve into CLASSTYPES unique (r.Class)");
  ASSERT_OK_AND_ASSIGN(const Relation* replaced, db_->Get("CLASSTYPES"));
  EXPECT_EQ(replaced->size(), 13u);
}

TEST_F(QuelTest, AppendCoercesAndChecksKeys) {
  Run("range of r is TYPE");
  ASSERT_OK_AND_ASSIGN(
      auto appended,
      session_->ExecuteText(
          "append to TYPE (Type = \"SS\", TypeName = \"diesel sub\")"));
  EXPECT_EQ(appended.affected, 1u);
  ASSERT_OK_AND_ASSIGN(const Relation* types, db_->Get("TYPE"));
  EXPECT_EQ(types->size(), 3u);
  // Duplicate key rejected by the relation layer.
  EXPECT_FALSE(session_
                   ->ExecuteText("append to TYPE (Type = \"SS\", TypeName = "
                                 "\"again\")")
                   .ok());
  // Unmentioned attributes become null.
  ASSERT_OK_AND_ASSIGN(auto partial,
                       session_->ExecuteText("append to TYPE (Type = 99)"));
  EXPECT_EQ(partial.affected, 1u);
  ASSERT_OK_AND_ASSIGN(Value name, types->GetValue(3, "TypeName"));
  EXPECT_TRUE(name.is_null());
  // 99 coerced to the CHAR key as "99".
  ASSERT_OK_AND_ASSIGN(Value key, types->GetValue(3, "Type"));
  EXPECT_EQ(key, Value::String("99"));
}

TEST_F(QuelTest, DeleteWithExistentialQualification) {
  Run("range of s is SUBMARINE");
  Run("range of i is INSTALL");
  // Delete the submarines that have a BQS-04 installed (4 ships).
  ASSERT_OK_AND_ASSIGN(
      auto result,
      session_->ExecuteText("delete s where s.Id = i.Ship and i.Sonar = "
                            "\"BQS-04\""));
  EXPECT_EQ(result.affected, 4u);
  ASSERT_OK_AND_ASSIGN(const Relation* ships, db_->Get("SUBMARINE"));
  EXPECT_EQ(ships->size(), 20u);
}

TEST_F(QuelTest, DeleteWithoutWhereClearsRelation) {
  Run("range of t is TYPE");
  ASSERT_OK_AND_ASSIGN(auto result, session_->ExecuteText("delete t"));
  EXPECT_EQ(result.affected, 2u);
  ASSERT_OK_AND_ASSIGN(const Relation* types, db_->Get("TYPE"));
  EXPECT_TRUE(types->empty());
}

// The paper's §5.2.1 Rule Induction Algorithm, steps 1 and 2, executed
// as the LITERAL QUEL statements the paper prints (X = Id, Y = Class
// over SUBMARINE).
TEST_F(QuelTest, PaperRuleInductionStepsRunVerbatim) {
  // Step 1: "range of r is relation; retrieve into S unique (r.Y, r.X)
  // sort by r.Y".
  ASSERT_OK(session_
                ->ExecuteScript(
                    "range of r is SUBMARINE\n"
                    "retrieve into S unique (r.Class, r.Id) sort by r.Class")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* s, db_->Get("S"));
  EXPECT_EQ(s->size(), 24u);  // Id is a key: all pairs distinct

  // Step 2: find inconsistent pairs...
  //   "range of s is S; retrieve into T unique (s.Y, s.X) where (r.X =
  //    s.X and r.Y != s.Y)"
  ASSERT_OK(session_
                ->ExecuteScript(
                    "range of s is S\n"
                    "retrieve into T unique (s.Class, s.Id) "
                    "where (r.Id = s.Id and r.Class != s.Class)")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* t, db_->Get("T"));
  EXPECT_TRUE(t->empty());  // Id is a key: no X has two Y values

  // ...then "delete s where (s.X = t.X and s.Y = t.Y)".
  ASSERT_OK(session_
                ->ExecuteScript("range of t is T\n"
                                "delete s where (s.Id = t.Id and s.Class = "
                                "t.Class)")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* s_after, db_->Get("S"));
  EXPECT_EQ(s_after->size(), 24u);  // nothing inconsistent to remove
}

// Same, on data that actually HAS inconsistent pairs: the INSTALL
// relation's (Ship-prefix, Sonar) correlation.
TEST_F(QuelTest, PaperStep2RemovesInconsistentPairs) {
  // Build a small relation with an inconsistent X value.
  ASSERT_OK(db_->CreateRelation("PAIRS",
                                Schema({{"X", ValueType::kInt, false},
                                        {"Y", ValueType::kString, false}}))
                .status());
  QuelSession fresh(db_.get());
  ASSERT_OK(fresh.ExecuteText("range of p is PAIRS").status());
  for (const char* row : {"(X = 1, Y = \"a\")", "(X = 2, Y = \"a\")",
                          "(X = 2, Y = \"b\")", "(X = 3, Y = \"c\")"}) {
    ASSERT_OK(fresh.ExecuteText(std::string("append to PAIRS ") + row)
                  .status());
  }
  ASSERT_OK(
      fresh
          .ExecuteScript(
              "retrieve into S unique (p.Y, p.X) sort by p.Y\n"
              "range of s is S\n"
              "retrieve into T unique (s.Y, s.X) where (p.X = s.X and p.Y "
              "!= s.Y)\n"
              "range of t is T\n"
              "delete s where (s.X = t.X and s.Y = t.Y)")
          .status());
  ASSERT_OK_AND_ASSIGN(const Relation* s, db_->Get("S"));
  // X=2 was inconsistent; only (1,a) and (3,c) survive.
  EXPECT_EQ(s->size(), 2u);
  EXPECT_EQ(ColumnText(*s, "X"), (std::vector<std::string>{"1", "3"}));
}

TEST_F(QuelTest, ScriptReturnsLastResult) {
  ASSERT_OK_AND_ASSIGN(auto result,
                       session_->ExecuteScript(
                           "range of r is TYPE; retrieve (r.Type)"));
  EXPECT_EQ(result.relation.size(), 2u);
  EXPECT_FALSE(session_->ExecuteScript("").ok());
}

TEST_F(QuelTest, UnboundVariableErrors) {
  EXPECT_FALSE(session_->ExecuteText("retrieve (q.X)").ok());
  EXPECT_FALSE(session_->ExecuteText("delete q").ok());
}

// Undeclared variables, then duplicate target names, then the
// qualification.
TEST_F(QuelTest, ErrorsComeInStatementOrder) {
  Run("range of r is CLASS");
  auto unbound = session_->ExecuteText(
      "retrieve (q.Type, r.Type) where r.Nope = 1");
  EXPECT_EQ(unbound.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unbound.status().ToString().find("'q'"), std::string::npos);
  auto duplicate = session_->ExecuteText(
      "retrieve (r.Type, Type = r.Class) where r.Nope = 1");
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
  auto qualification =
      session_->ExecuteText("retrieve (r.Type) where r.Nope = 1");
  EXPECT_EQ(qualification.status().code(), StatusCode::kNotFound);
  EXPECT_NE(qualification.status().ToString().find("r.Nope"),
            std::string::npos);
}

// A quoted number against an INT attribute is coerced the way SQL
// coerces it.
TEST_F(QuelTest, QuotedNumberAgainstIntAttributeIsCoerced) {
  Run("range of c is CLASS");
  Relation typed = Run("retrieve (c.ClassName) where c.Displacement > 8000");
  Relation quoted =
      Run("retrieve (c.ClassName) where c.Displacement > \"8000\"");
  EXPECT_GT(typed.size(), 0u);
  EXPECT_EQ(quoted.ToTable(), typed.ToTable());
}

TEST_F(QuelTest, AppendCoercesQuotedNumberIntoIntAttribute) {
  ASSERT_OK(session_
                ->ExecuteText("append to CLASS (Class = \"9901\", Type = "
                              "\"SSN\", Displacement = \"4200\")")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* classes, db_->Get("CLASS"));
  ASSERT_OK_AND_ASSIGN(Value displacement,
                       classes->GetValue(classes->size() - 1, "Displacement"));
  EXPECT_EQ(displacement.type(), ValueType::kInt);
  EXPECT_EQ(displacement, Value::Int(4200));
}

// The qualification binds before any row is read, so a missing
// attribute fails even over an empty relation.
TEST_F(QuelTest, UnknownQualificationAttributeFailsAtBind) {
  ASSERT_OK(db_->CreateRelation("EMPTY", Schema({{"X", ValueType::kInt,
                                                  false}}))
                .status());
  Run("range of e is EMPTY");
  auto retrieve = session_->ExecuteText("retrieve (e.X) where e.Nope = 1");
  EXPECT_EQ(retrieve.status().code(), StatusCode::kNotFound);
  auto del = session_->ExecuteText("delete e where e.Nope = 1");
  EXPECT_EQ(del.status().code(), StatusCode::kNotFound);
}

TEST_F(QuelTest, IntEqualsRealJoinMeetsPastTenSignificantDigits) {
  // The QUEL twin of the SQL executor's case: `a.K = b.R` is an equi-join
  // of the lowered statement, and 1e10 = 10000000000 must meet in it.
  ASSERT_OK_AND_ASSIGN(
      Relation * a,
      db_->CreateRelation("A", Schema({{"K", ValueType::kInt, false}})));
  ASSERT_OK_AND_ASSIGN(
      Relation * b,
      db_->CreateRelation("B", Schema({{"R", ValueType::kReal, false}})));
  for (int64_t k : {int64_t{5}, int64_t{10000000000}, int64_t{12345678901}}) {
    ASSERT_OK(a->Insert(Tuple{Value::Int(k)}));
    ASSERT_OK(b->Insert(Tuple{Value::Real(static_cast<double>(k))}));
  }
  Run("range of a is A");
  Run("range of b is B");
  Relation joined = Run("retrieve (a.K, b.R) where a.K = b.R");
  EXPECT_EQ(joined.size(), 3u);
}

// A join of incomparable attributes fails at bind with ApplyCompare's
// text, like the same compare in a cross product, whatever the rows.
TEST_F(QuelTest, JoinOfIncomparableAttributesIsATypeError) {
  Run("range of s is SUBMARINE");
  Run("range of c is CLASS");
  auto retrieve =
      session_->ExecuteText("retrieve (s.Name) where s.Id = c.Displacement");
  ASSERT_FALSE(retrieve.ok());
  EXPECT_EQ(retrieve.status().code(), StatusCode::kTypeError);
  EXPECT_EQ(retrieve.status().message(), "cannot compare string with integer");
}

// QUEL statements run through the SQL executor: its counters see them
// and its exec.scan failpoint stops them.
TEST_F(QuelTest, StatementsRunThroughTheSqlExecutor) {
  Run("range of s is SUBMARINE");
#ifndef IQS_OBS_DISABLED
  obs::Counter* executions =
      obs::GlobalMetrics().GetCounter("sql.execute.count");
  const uint64_t before = executions->value();
  Run("retrieve (s.Id) where s.Class = 0204");
  EXPECT_EQ(executions->value(), before + 1);
#endif  // IQS_OBS_DISABLED
  fault::ScopedFailpoint fp("exec.scan", "error(unavailable,scan down)");
  ASSERT_TRUE(fp.ok());
  auto retrieve = session_->ExecuteText("retrieve (s.Id)");
  EXPECT_EQ(retrieve.status().code(), StatusCode::kUnavailable);
  auto del = session_->ExecuteText("delete s");
  EXPECT_EQ(del.status().code(), StatusCode::kUnavailable);
}

// Over three or more variables the rows come in the executor's join
// order, exactly as the same SELECT returns them. Its greedy plan
// attaches b (the first join conjunct's) before a, so within a class the
// b rows vary slowest, unlike a nested loop in variable order.
TEST_F(QuelTest, ThreeVariableRetrieveKeepsTheExecutorsRowOrder) {
  ASSERT_OK_AND_ASSIGN(
      auto quel,
      session_->ExecuteScript(
          "range of c is CLASS\nrange of a is SUBMARINE\n"
          "range of b is SUBMARINE\n"
          "retrieve (c.Class, first = a.Id, second = b.Id) where c.Class = "
          "b.Class and c.Class = a.Class"));
  SqlExecutor executor(db_.get());
  ASSERT_OK_AND_ASSIGN(
      Relation sql,
      executor.ExecuteSql(
          "SELECT c.Class, a.Id, b.Id FROM CLASS c, SUBMARINE a, SUBMARINE b "
          "WHERE c.Class = b.Class AND c.Class = a.Class"));
  ASSERT_EQ(quel.relation.size(), sql.size());
  for (size_t i = 0; i < sql.size(); ++i) {
    EXPECT_EQ(quel.relation.row(i).ToString(), sql.row(i).ToString()) << i;
  }
}

}  // namespace
}  // namespace iqs
