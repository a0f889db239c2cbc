#include "sql/sql_parser.h"

#include "gtest/gtest.h"
#include "sql/sql_lexer.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

TEST(SqlLexerTest, Basics) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       LexSql("SELECT a.b, 'x''y' FROM t WHERE n >= 3.5"));
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_TRUE(tokens[2].IsSymbol("."));
  EXPECT_EQ(tokens[3].text, "b");
  EXPECT_TRUE(tokens[4].IsSymbol(","));
  EXPECT_EQ(tokens[5].kind, SqlTokenKind::kString);
  EXPECT_EQ(tokens[5].text, "x'y");
  ASSERT_OK_AND_ASSIGN(auto more, LexSql("a <> b"));
  EXPECT_TRUE(more[1].IsSymbol("!="));  // <> normalizes
}

TEST(SqlLexerTest, Errors) {
  EXPECT_FALSE(LexSql("'unterminated").ok());
  EXPECT_FALSE(LexSql("a ? b").ok());
}

TEST(SqlLexerTest, CommentsSkipped) {
  ASSERT_OK_AND_ASSIGN(auto tokens, LexSql("SELECT -- comment\n x"));
  EXPECT_EQ(tokens[1].text, "x");
}

TEST(SqlParserTest, MinimalSelect) {
  ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect("SELECT * FROM T"));
  EXPECT_TRUE(stmt.select_all);
  EXPECT_FALSE(stmt.distinct);
  ASSERT_EQ(stmt.from.size(), 1u);
  EXPECT_EQ(stmt.from[0].name, "T");
  EXPECT_EQ(stmt.where, nullptr);
}

TEST(SqlParserTest, QualifiedColumnsAndDistinct) {
  ASSERT_OK_AND_ASSIGN(
      SelectStatement stmt,
      ParseSelect("select distinct S.Id, Name from SUBMARINE S;"));
  EXPECT_TRUE(stmt.distinct);
  ASSERT_EQ(stmt.select_list.size(), 2u);
  EXPECT_EQ(stmt.select_list[0].column.qualifier, "S");
  EXPECT_EQ(stmt.select_list[0].column.name, "Id");
  EXPECT_EQ(stmt.select_list[1].column.qualifier, "");
  EXPECT_EQ(stmt.from[0].alias, "S");
}

TEST(SqlParserTest, AsAlias) {
  ASSERT_OK_AND_ASSIGN(SelectStatement stmt,
                       ParseSelect("SELECT * FROM SUBMARINE AS sub"));
  EXPECT_EQ(stmt.from[0].effective_name(), "sub");
}

TEST(SqlParserTest, PaperExample1Parses) {
  ASSERT_OK_AND_ASSIGN(
      SelectStatement stmt,
      ParseSelect("SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, "
                  "CLASS.TYPE FROM SUBMARINE, CLASS WHERE SUBMARINE.CLASS = "
                  "CLASS.CLASS AND CLASS.DISPLACEMENT > 8000"));
  EXPECT_EQ(stmt.select_list.size(), 4u);
  EXPECT_EQ(stmt.from.size(), 2u);
  ASSERT_NE(stmt.where, nullptr);
  std::vector<const SqlExpr*> conjuncts = TopLevelConjuncts(stmt.where.get());
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->op, CompareOp::kEq);
  EXPECT_EQ(conjuncts[1]->op, CompareOp::kGt);
  EXPECT_EQ(conjuncts[1]->rhs.literal, Value::Int(8000));
}

TEST(SqlParserTest, PrecedenceAndParentheses) {
  ASSERT_OK_AND_ASSIGN(
      SelectStatement stmt,
      ParseSelect("SELECT * FROM T WHERE a = 1 OR b = 2 AND c = 3"));
  // AND binds tighter: OR(a=1, AND(b=2, c=3)).
  EXPECT_EQ(stmt.where->kind, SqlExpr::Kind::kOr);
  EXPECT_EQ(stmt.where->right->kind, SqlExpr::Kind::kAnd);

  ASSERT_OK_AND_ASSIGN(
      SelectStatement grouped,
      ParseSelect("SELECT * FROM T WHERE (a = 1 OR b = 2) AND c = 3"));
  EXPECT_EQ(grouped.where->kind, SqlExpr::Kind::kAnd);
  EXPECT_EQ(grouped.where->left->kind, SqlExpr::Kind::kOr);
}

TEST(SqlParserTest, NotAndBetween) {
  ASSERT_OK_AND_ASSIGN(
      SelectStatement stmt,
      ParseSelect(
          "SELECT * FROM T WHERE NOT a = 1 AND d BETWEEN 10 AND 20"));
  std::vector<const SqlExpr*> conjuncts = TopLevelConjuncts(stmt.where.get());
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->kind, SqlExpr::Kind::kNot);
  EXPECT_EQ(conjuncts[1]->kind, SqlExpr::Kind::kBetween);
  EXPECT_EQ(conjuncts[1]->low.literal, Value::Int(10));
  EXPECT_EQ(conjuncts[1]->high.literal, Value::Int(20));
}

TEST(SqlParserTest, OrderBy) {
  ASSERT_OK_AND_ASSIGN(
      SelectStatement stmt,
      ParseSelect("SELECT * FROM T ORDER BY a DESC, T.b ASC, c"));
  ASSERT_EQ(stmt.order_by.size(), 3u);
  EXPECT_TRUE(stmt.order_by[0].descending);
  EXPECT_FALSE(stmt.order_by[1].descending);
  EXPECT_EQ(stmt.order_by[1].column.qualifier, "T");
}

TEST(SqlParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_OK(
      ParseSelect("select * from T where A = 1 order by A desc").status());
}

TEST(SqlParserTest, ToStringRoundTripReparses) {
  const char* queries[] = {
      "SELECT * FROM T",
      "SELECT DISTINCT a, T.b FROM T, U WHERE T.x = U.y AND a > 3 "
      "ORDER BY a DESC",
      "SELECT a FROM T WHERE NOT (a = 1 OR b < 2)",
      "SELECT a FROM T WHERE d BETWEEN 1 AND 2",
  };
  for (const char* q : queries) {
    ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect(q));
    ASSERT_OK_AND_ASSIGN(SelectStatement again,
                         ParseSelect(stmt.ToString()));
    EXPECT_EQ(again.ToString(), stmt.ToString()) << q;
  }
}

TEST(SqlParserTest, NegativeNumericLiterals) {
  ASSERT_OK_AND_ASSIGN(SelectStatement eq,
                       ParseSelect("SELECT * FROM T WHERE K = -3"));
  EXPECT_EQ(eq.where->rhs.literal, Value::Int(-3));

  ASSERT_OK_AND_ASSIGN(
      SelectStatement band,
      ParseSelect("SELECT * FROM T WHERE K BETWEEN -5 AND -1"));
  EXPECT_EQ(band.where->kind, SqlExpr::Kind::kBetween);
  EXPECT_EQ(band.where->low.literal, Value::Int(-5));
  EXPECT_EQ(band.where->high.literal, Value::Int(-1));

  ASSERT_OK_AND_ASSIGN(SelectStatement real,
                       ParseSelect("SELECT * FROM T WHERE D > -2.5"));
  EXPECT_EQ(real.where->op, CompareOp::kGt);
  EXPECT_EQ(real.where->rhs.literal, Value::Real(-2.5));

  // "--" still starts a comment, digits or not.
  ASSERT_OK_AND_ASSIGN(SelectStatement comment,
                       ParseSelect("SELECT * FROM T WHERE K = 1 --3"));
  EXPECT_EQ(comment.where->rhs.literal, Value::Int(1));

  for (const SelectStatement* stmt : {&eq, &band, &real}) {
    ASSERT_OK_AND_ASSIGN(SelectStatement again, ParseSelect(stmt->ToString()));
    EXPECT_EQ(again.ToString(), stmt->ToString());
  }
  // There is no binary minus.
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE K = 1 - 3").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE K = 1 -3").ok());
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT FROM T").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE a").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE a = ").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE (a = 1").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T extra garbage").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE a BETWEEN 1").ok());
  EXPECT_FALSE(ParseSelect("UPDATE T SET x = 1").ok());
}

}  // namespace
}  // namespace iqs
