#include "relational/predicate.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

TEST(CompareOpTest, Symbols) {
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kEq), "=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kNe), "!=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLt), "<");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kGt), ">");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kGe), ">=");
}

TEST(ApplyCompareTest, AllOperators) {
  Value a = Value::Int(1);
  Value b = Value::Int(2);
  struct Case {
    CompareOp op;
    bool ab;  // a op b
    bool ba;  // b op a
    bool aa;  // a op a
  };
  const Case cases[] = {
      {CompareOp::kEq, false, false, true},
      {CompareOp::kNe, true, true, false},
      {CompareOp::kLt, true, false, false},
      {CompareOp::kLe, true, false, true},
      {CompareOp::kGt, false, true, false},
      {CompareOp::kGe, false, true, true},
  };
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(bool ab, ApplyCompare(c.op, a, b));
    ASSERT_OK_AND_ASSIGN(bool ba, ApplyCompare(c.op, b, a));
    ASSERT_OK_AND_ASSIGN(bool aa, ApplyCompare(c.op, a, a));
    EXPECT_EQ(ab, c.ab) << CompareOpSymbol(c.op);
    EXPECT_EQ(ba, c.ba) << CompareOpSymbol(c.op);
    EXPECT_EQ(aa, c.aa) << CompareOpSymbol(c.op);
  }
}

TEST(ApplyCompareTest, NullComparesFalse) {
  ASSERT_OK_AND_ASSIGN(bool eq,
                       ApplyCompare(CompareOp::kEq, Value::Null(),
                                    Value::Null()));
  EXPECT_FALSE(eq);
  ASSERT_OK_AND_ASSIGN(bool ne, ApplyCompare(CompareOp::kNe, Value::Null(),
                                             Value::Int(1)));
  EXPECT_FALSE(ne);
}

TEST(ApplyCompareTest, IncomparableTypesError) {
  EXPECT_EQ(ApplyCompare(CompareOp::kLt, Value::Int(1), Value::String("1"))
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST(PredicateTest, CompareOverTuple) {
  Tuple t({Value::String("SSBN"), Value::Int(16600)});
  PredicatePtr p = MakeCompare(CompareOp::kGt, MakeColumn(1),
                               MakeConstant(Value::Int(8000)));
  ASSERT_OK_AND_ASSIGN(bool v, p->Eval(t));
  EXPECT_TRUE(v);
}

TEST(PredicateTest, AndOrNot) {
  Tuple t({Value::Int(5)});
  auto gt3 = MakeCompare(CompareOp::kGt, MakeColumn(0),
                         MakeConstant(Value::Int(3)));
  auto lt4 = MakeCompare(CompareOp::kLt, MakeColumn(0),
                         MakeConstant(Value::Int(4)));
  ASSERT_OK_AND_ASSIGN(bool and_v, MakeAnd(gt3, lt4)->Eval(t));
  EXPECT_FALSE(and_v);
  ASSERT_OK_AND_ASSIGN(bool or_v, MakeOr(gt3, lt4)->Eval(t));
  EXPECT_TRUE(or_v);
  ASSERT_OK_AND_ASSIGN(bool not_v, MakeNot(lt4)->Eval(t));
  EXPECT_TRUE(not_v);
  ASSERT_OK_AND_ASSIGN(bool true_v, MakeTrue()->Eval(t));
  EXPECT_TRUE(true_v);
}

TEST(PredicateTest, AndShortCircuits) {
  // The right side would be a type error; the false left side must
  // short-circuit it.
  Tuple t({Value::Int(1), Value::String("x")});
  auto lhs_false = MakeCompare(CompareOp::kGt, MakeColumn(0),
                               MakeConstant(Value::Int(100)));
  auto rhs_error = MakeCompare(CompareOp::kEq, MakeColumn(1),
                               MakeConstant(Value::Int(1)));
  ASSERT_OK_AND_ASSIGN(bool v, MakeAnd(lhs_false, rhs_error)->Eval(t));
  EXPECT_FALSE(v);
  EXPECT_FALSE(MakeAnd(rhs_error, lhs_false)->Eval(t).ok());
}

TEST(PredicateTest, ColumnOutOfRangeIsInternalError) {
  Tuple t({Value::Int(1)});
  auto p = MakeCompare(CompareOp::kEq, MakeColumn(7),
                       MakeConstant(Value::Int(1)));
  EXPECT_EQ(p->Eval(t).status().code(), StatusCode::kInternal);
}

TEST(PredicateTest, ToStringUsesSchemaNames) {
  Schema schema({{"Displacement", ValueType::kInt, false}});
  auto p = MakeCompare(CompareOp::kGe, MakeColumn(0),
                       MakeConstant(Value::Int(7250)));
  EXPECT_EQ(p->ToString(&schema), "Displacement >= 7250");
  EXPECT_EQ(p->ToString(nullptr), "$0 >= 7250");
  auto str = MakeCompare(CompareOp::kEq, MakeColumn(0),
                         MakeConstant(Value::String("SSBN")));
  EXPECT_EQ(str->ToString(&schema), "Displacement = 'SSBN'");
}

TEST(LikeMatchTest, WildcardSemantics) {
  // '%' matches any run (including empty), '_' exactly one character.
  EXPECT_TRUE(LikeMatch("cache.plan.hits", "cache.%"));
  EXPECT_TRUE(LikeMatch("cache.", "cache.%"));
  EXPECT_FALSE(LikeMatch("cache", "cache.%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("ac", "a_c"));
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("anything", "%"));
  EXPECT_TRUE(LikeMatch("query.count", "%count"));
  EXPECT_TRUE(LikeMatch("query.count", "%.%"));
}

TEST(LikeMatchTest, UnderscoreConsumesOneCodePoint) {
  // '_' matches one UTF-8 code point, not one byte: "Ké" is K (1 byte)
  // plus U+00E9 (2 bytes), and "日本" is two 3-byte code points.
  EXPECT_TRUE(LikeMatch("K\xC3\xA9", "K_"));
  EXPECT_TRUE(LikeMatch("\xC3\xA9", "_"));
  EXPECT_FALSE(LikeMatch("\xC3\xA9", "__"));
  EXPECT_TRUE(LikeMatch("\xE6\x97\xA5\xE6\x9C\xAC", "__"));
  EXPECT_FALSE(LikeMatch("\xE6\x97\xA5\xE6\x9C\xAC", "_"));
  EXPECT_TRUE(LikeMatch("\xF0\x9F\x98\x80", "_"));  // U+1F600, 4 bytes
  // Mixed with literals and '%': one '_' skips exactly the accented char.
  EXPECT_TRUE(LikeMatch("caf\xC3\xA9 au lait", "caf_ au %"));
  EXPECT_TRUE(LikeMatch("\xE6\x97\xA5\xE6\x9C\xAC\xE8\xAA\x9E", "_%\xE8\xAA\x9E"));
  EXPECT_TRUE(LikeMatch("a\xC3\xA9z", "a_z"));
  EXPECT_FALSE(LikeMatch("a\xC3\xA9\xC3\xA9z", "a_z"));
  EXPECT_TRUE(LikeMatch("a\xC3\xA9\xC3\xA9z", "a__z"));
}

TEST(LikeMatchTest, MalformedBytesDegradeToSingleBytes) {
  // A lead byte with its continuation bytes truncated never consumes
  // past what is present; stray continuation bytes count one each.
  EXPECT_TRUE(LikeMatch("\xC3", "_"));          // truncated 2-byte seq
  EXPECT_TRUE(LikeMatch("\xE6\x97", "_"));      // truncated 3-byte seq
  EXPECT_TRUE(LikeMatch("\x80", "_"));          // bare continuation byte
  EXPECT_TRUE(LikeMatch("\x80\x80", "__"));
  EXPECT_FALSE(LikeMatch("\xC3", "__"));
}

TEST(LikeMatchTest, BacktracksAcrossGreedyWildcards) {
  // The first '%' must give characters back for the suffix to land.
  EXPECT_TRUE(LikeMatch("ababab", "%ab"));
  EXPECT_TRUE(LikeMatch("aXbXcXb", "%X%b"));
  EXPECT_FALSE(LikeMatch("abc", "%ab%d"));
  EXPECT_TRUE(LikeMatch("mississippi", "%iss%ppi"));
  EXPECT_FALSE(LikeMatch("mississippi", "%iss%ppX"));
}

TEST(LikeMatchTest, LiteralCharactersAreCaseSensitive) {
  EXPECT_FALSE(LikeMatch("Cache.hits", "cache.%"));
  EXPECT_TRUE(LikeMatch("Cache.hits", "Cache.%"));
}

TEST(LikeMatchTest, AppliesToRenderedNonStringValues) {
  // LIKE compares rendered text, so integer catalog columns match too.
  ASSERT_OK_AND_ASSIGN(
      bool v, ApplyCompare(CompareOp::kLike, Value::Int(1234),
                           Value::String("12%")));
  EXPECT_TRUE(v);
  ASSERT_OK_AND_ASSIGN(
      bool null_like, ApplyCompare(CompareOp::kLike, Value::Null(),
                                   Value::String("%")));
  EXPECT_FALSE(null_like);
}

}  // namespace
}  // namespace iqs
