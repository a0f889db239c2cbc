// The binder (sql/binder.h): the one literal coercion, the one column
// resolver, and the column-first conjuncts every consumer reads.

#include "sql/binder.h"

#include <vector>

#include "gtest/gtest.h"
#include "sql/sql_executor.h"
#include "sql/sql_parser.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

// Literal spellings as the parser produces them.
Value IntLit() { return Value::Int(204); }
Value RealLit() { return Value::Real(1.5); }

TEST(CoerceLiteralTest, CharColumnKeepsTheSpelling) {
  ASSERT_OK_AND_ASSIGN(Value i,
                       CoerceLiteral(IntLit(), "0204", ValueType::kString));
  EXPECT_EQ(i, Value::String("0204"));
  ASSERT_OK_AND_ASSIGN(Value r,
                       CoerceLiteral(RealLit(), "1.50", ValueType::kString));
  EXPECT_EQ(r, Value::String("1.50"));
  ASSERT_OK_AND_ASSIGN(
      Value s, CoerceLiteral(Value::String("SSN"), "SSN", ValueType::kString));
  EXPECT_EQ(s, Value::String("SSN"));
}

TEST(CoerceLiteralTest, IntColumnParsesQuotedText) {
  ASSERT_OK_AND_ASSIGN(Value i,
                       CoerceLiteral(IntLit(), "204", ValueType::kInt));
  EXPECT_EQ(i.type(), ValueType::kInt);
  ASSERT_OK_AND_ASSIGN(Value r,
                       CoerceLiteral(RealLit(), "1.5", ValueType::kInt));
  EXPECT_EQ(r.type(), ValueType::kReal);  // compares numerically as is
  ASSERT_OK_AND_ASSIGN(Value s, CoerceLiteral(Value::String("3000"), "3000",
                                              ValueType::kInt));
  EXPECT_EQ(s.type(), ValueType::kInt);
  EXPECT_EQ(s, Value::Int(3000));
  EXPECT_EQ(CoerceLiteral(Value::String("abc"), "abc", ValueType::kInt)
                .status()
                .code(),
            StatusCode::kParseError);
  // Empty text is null: the comparison admits no row.
  ASSERT_OK_AND_ASSIGN(Value empty,
                       CoerceLiteral(Value::String(""), "", ValueType::kInt));
  EXPECT_TRUE(empty.is_null());
}

TEST(CoerceLiteralTest, RealColumnWidensIntegersOnly) {
  ASSERT_OK_AND_ASSIGN(Value i,
                       CoerceLiteral(IntLit(), "204", ValueType::kReal));
  EXPECT_EQ(i.type(), ValueType::kReal);
  EXPECT_EQ(i, Value::Real(204.0));
  ASSERT_OK_AND_ASSIGN(Value r,
                       CoerceLiteral(RealLit(), "1.5", ValueType::kReal));
  EXPECT_EQ(r, Value::Real(1.5));
  EXPECT_EQ(CoerceLiteral(Value::String("1.5"), "1.5", ValueType::kReal)
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST(CoerceLiteralTest, DateColumnParsesQuotedTextOnly) {
  EXPECT_EQ(CoerceLiteral(IntLit(), "204", ValueType::kDate).status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(CoerceLiteral(RealLit(), "1.5", ValueType::kDate).status().code(),
            StatusCode::kTypeError);
  ASSERT_OK_AND_ASSIGN(Value d, CoerceLiteral(Value::String("1990-04-01"),
                                              "1990-04-01", ValueType::kDate));
  EXPECT_EQ(d.type(), ValueType::kDate);
  EXPECT_EQ(d.ToString(), "1990-04-01");
  EXPECT_EQ(CoerceLiteral(Value::String("April"), "April", ValueType::kDate)
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(CoerceLiteralTest, NullStaysNull) {
  for (ValueType type : {ValueType::kString, ValueType::kInt,
                         ValueType::kReal, ValueType::kDate}) {
    ASSERT_OK_AND_ASSIGN(Value v, CoerceLiteral(Value::Null(), "", type));
    EXPECT_TRUE(v.is_null());
  }
}

TEST(ResolveColumnTest, QualifiedUnqualifiedAmbiguousMissing) {
  Schema schema({{"S.Id", ValueType::kString, false},
                 {"S.Name", ValueType::kString, false},
                 {"C.Name", ValueType::kString, false}});
  ASSERT_OK_AND_ASSIGN(size_t idx, ResolveColumn(schema, {"S", "Id"}));
  EXPECT_EQ(idx, 0u);
  ASSERT_OK_AND_ASSIGN(size_t id_idx, ResolveColumn(schema, {"", "Id"}));
  EXPECT_EQ(id_idx, 0u);
  ASSERT_OK_AND_ASSIGN(size_t c_idx, ResolveColumn(schema, {"c", "name"}));
  EXPECT_EQ(c_idx, 2u);
  EXPECT_EQ(ResolveColumn(schema, {"", "Name"}).status().code(),
            StatusCode::kInvalidArgument);  // ambiguous
  EXPECT_EQ(ResolveColumn(schema, {"", "Ghost"}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ResolveColumn(schema, {"X", "Id"}).status().code(),
            StatusCode::kNotFound);
}

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_util::ShipDatabaseOrFail();
    ASSERT_TRUE(db_);
  }

  Result<BoundQuery> BindSql(const std::string& sql) {
    Result<SelectStatement> stmt = ParseSelect(sql);
    if (!stmt.ok()) return stmt.status();
    stmt_ = std::move(stmt).value();
    return Bind(stmt_, *db_);
  }

  std::unique_ptr<Database> db_;
  SelectStatement stmt_;
};

TEST_F(BinderTest, ResolvesFromEntriesAndColumns) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql("SELECT s.Name FROM SUBMARINE s, CLASS "
              "WHERE s.Class = CLASS.Class AND Displacement > 8000"));
  ASSERT_EQ(q.tables.size(), 2u);
  EXPECT_EQ(q.tables[0].relation->name(), "SUBMARINE");
  EXPECT_EQ(q.tables[1].offset, q.tables[0].relation->schema().size());
  ASSERT_EQ(q.conjuncts.size(), 2u);
  const BoundConjunct& join = q.conjuncts[0];
  EXPECT_EQ(join.kind, BoundConjunct::Kind::kColumns);
  EXPECT_EQ(join.column.table, 0u);
  EXPECT_EQ(join.other.table, 1u);
  EXPECT_EQ(q.attribute(join.other).name, "Class");
  const BoundConjunct& range = q.conjuncts[1];
  EXPECT_EQ(range.kind, BoundConjunct::Kind::kCompare);
  EXPECT_EQ(range.column.table, 1u);  // unqualified, unique to CLASS
  EXPECT_EQ(range.column.type, ValueType::kInt);
  EXPECT_EQ(q.attribute(range.column).name, "Displacement");
}

TEST_F(BinderTest, AliasHidesTheTableName) {
  EXPECT_OK(BindSql("SELECT c.Type FROM CLASS c WHERE c.Type = 'SSN'")
                .status());
  EXPECT_EQ(BindSql("SELECT c.Type FROM CLASS c WHERE CLASS.Type = 'SSN'")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(BinderTest, ResolutionErrorsKeepTheirCodes) {
  EXPECT_EQ(BindSql("SELECT Id FROM SUBMARINE, CLASS WHERE Class = '0204'")
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // ambiguous
  EXPECT_EQ(BindSql("SELECT Id FROM SUBMARINE WHERE Ghost = 1").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(BindSql("SELECT Id FROM GHOST").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(BindSql("SELECT * FROM TYPE t, SONAR t").status().code(),
            StatusCode::kInvalidArgument);  // duplicate alias
  // An uncoercible literal is a bind error, before any stage runs.
  EXPECT_EQ(BindSql("SELECT Class FROM CLASS WHERE Displacement = 'abc'")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST_F(BinderTest, LiteralLeftComparisonsAreOrientedColumnFirst) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql("SELECT Class FROM CLASS WHERE 7250 <= Displacement "
              "AND '3000' < Displacement AND 'SSN' = Type"));
  ASSERT_EQ(q.conjuncts.size(), 3u);
  EXPECT_EQ(q.conjuncts[0].kind, BoundConjunct::Kind::kCompare);
  EXPECT_EQ(q.conjuncts[0].op, CompareOp::kGe);
  EXPECT_EQ(q.conjuncts[0].constant, Value::Int(7250));
  EXPECT_EQ(q.conjuncts[1].op, CompareOp::kGt);
  EXPECT_EQ(q.conjuncts[1].constant.type(), ValueType::kInt);
  EXPECT_EQ(q.conjuncts[1].constant, Value::Int(3000));
  EXPECT_EQ(q.conjuncts[2].op, CompareOp::kEq);
  EXPECT_EQ(q.attribute(q.conjuncts[2].column).name, "Type");
}

TEST_F(BinderTest, MixedSpellingBetweenBindsTypedBounds) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql("SELECT Class FROM CLASS WHERE Displacement BETWEEN '3000' "
              "AND 4000 AND 1 = 1"));
  ASSERT_EQ(q.conjuncts.size(), 2u);
  EXPECT_EQ(q.conjuncts[0].kind, BoundConjunct::Kind::kBetween);
  EXPECT_EQ(q.conjuncts[0].constant, Value::Int(3000));
  EXPECT_EQ(q.conjuncts[0].constant.type(), ValueType::kInt);
  EXPECT_EQ(q.conjuncts[0].high, Value::Int(4000));
  EXPECT_EQ(q.conjuncts[1].kind, BoundConjunct::Kind::kOther);
}

TEST_F(BinderTest, IncomparableComparisonsFailWithApplyComparesText) {
  struct Case {
    const char* sql;
    const char* message;
  };
  const std::vector<Case> cases = {
      // column vs column
      {"SELECT Id FROM SUBMARINE s, CLASS c WHERE s.Id = c.Displacement",
       "cannot compare string with integer"},
      // literal vs literal
      {"SELECT Id FROM SUBMARINE WHERE 1 = 'a'",
       "cannot compare integer with string"},
      // inside OR, and inside NOT
      {"SELECT Id FROM SUBMARINE s, CLASS c "
       "WHERE s.Class = '0204' OR c.Displacement < s.Name",
       "cannot compare integer with string"},
      {"SELECT Id FROM SUBMARINE s, CLASS c WHERE NOT s.Id <> c.Displacement",
       "cannot compare string with integer"},
      // either bound of a BETWEEN
      {"SELECT Class FROM CLASS WHERE Displacement BETWEEN 1 AND Type",
       "cannot compare integer with string"},
      {"SELECT Class FROM CLASS WHERE Type BETWEEN Displacement AND 'z'",
       "cannot compare string with integer"},
  };
  for (const Case& c : cases) {
    Result<BoundQuery> q = BindSql(c.sql);
    ASSERT_FALSE(q.ok()) << c.sql;
    EXPECT_EQ(q.status().code(), StatusCode::kTypeError) << c.sql;
    EXPECT_EQ(q.status().message(), c.message) << c.sql;
  }
  // Numeric types meet; LIKE matches rendered strings and never errors.
  EXPECT_OK(BindSql("SELECT Id FROM SUBMARINE WHERE 1 < 2.5").status());
  EXPECT_OK(BindSql("SELECT Id FROM SUBMARINE s, CLASS c "
                    "WHERE s.Id LIKE c.Displacement")
                .status());
}

TEST_F(BinderTest, IncomparableJoinsFailEvenWithoutRows) {
  // The equi-join and the cross product raise the same error, and a
  // relation with no rows no longer hides it; so does a HAVING with no
  // groups.
  ASSERT_OK(db_->CreateRelation("EMPTY", Schema({{"X", ValueType::kInt,
                                                  false}}))
                .status());
  SqlExecutor executor(db_.get());
  for (const char* sql :
       {"SELECT s.Name FROM SUBMARINE s, CLASS c WHERE s.Id = c.Displacement",
        "SELECT s.Name FROM SUBMARINE s, CLASS c WHERE s.Id < c.Displacement",
        "SELECT s.Name FROM SUBMARINE s, EMPTY e WHERE s.Id < e.X",
        "SELECT Type, COUNT(*) FROM CLASS WHERE Displacement < 0 "
        "GROUP BY Type HAVING COUNT(*) > Type"}) {
    Result<Relation> out = executor.ExecuteSql(sql);
    ASSERT_FALSE(out.ok()) << sql;
    EXPECT_EQ(out.status().code(), StatusCode::kTypeError) << sql;
  }
}

TEST_F(BinderTest, LiteralLeftLikeIsNotAColumnCondition) {
  // `'T%' LIKE Name` matches the constant against Name as the pattern;
  // it has no column-first form.
  ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql("SELECT Name FROM SUBMARINE WHERE 'T%' LIKE Name "
              "AND Name LIKE 'T%'"));
  ASSERT_EQ(q.conjuncts.size(), 2u);
  EXPECT_EQ(q.conjuncts[0].kind, BoundConjunct::Kind::kOther);
  EXPECT_EQ(q.conjuncts[1].kind, BoundConjunct::Kind::kCompare);
  EXPECT_EQ(q.conjuncts[1].op, CompareOp::kLike);
  EXPECT_EQ(q.conjuncts[1].constant, Value::String("T%"));
}

TEST_F(BinderTest, VirtualRelationsBindOneSnapshotPerName) {
  // The sys.* providers are registered by the assembled system.
  auto system = testing_util::ShipSystemOrFail();
  ASSERT_TRUE(system);
  ASSERT_OK_AND_ASSIGN(SelectStatement stmt,
                       ParseSelect("SELECT a.name FROM sys.metrics a, "
                                   "sys.metrics b WHERE a.name = b.name"));
  ASSERT_OK_AND_ASSIGN(BoundQuery q, Bind(stmt, system->database()));
  ASSERT_EQ(q.tables.size(), 2u);
  EXPECT_TRUE(q.tables[0].is_virtual());
  EXPECT_EQ(q.tables[0].snapshot, q.tables[1].snapshot);
}

TEST_F(BinderTest, OutOfOrderJoinReadsTheRemappedWhere) {
  // The greedy plan joins SUBMARINE, INSTALL, then SONAR: the working
  // layout differs from FROM order, and the WHERE follows it.
  SqlExecutor executor(db_.get());
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      executor.ExecuteSql(
          "SELECT SUBMARINE.Name, SONAR.SonarType FROM SUBMARINE, SONAR, "
          "INSTALL WHERE SUBMARINE.Id = INSTALL.Ship AND INSTALL.Sonar = "
          "SONAR.Sonar AND SONAR.SonarType = 'TACTAS'"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value::String("Bremerton"));
  EXPECT_EQ(out.row(0).at(1), Value::String("TACTAS"));
}

}  // namespace
}  // namespace iqs
