#include "relational/index.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::MakeRelation;

Relation Numbers() {
  return MakeRelation("R",
                      Schema({{"k", ValueType::kInt, false},
                              {"tag", ValueType::kString, false}}),
                      {{"5", "a"},
                       {"1", "b"},
                       {"3", "c"},
                       {"3", "d"},
                       {"", "null-row"},
                       {"9", "e"}});
}

TEST(SortedIndexTest, BuildSkipsNulls) {
  ASSERT_OK_AND_ASSIGN(SortedIndex index, SortedIndex::Build(Numbers(), "k"));
  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.attribute(), "k");
}

TEST(SortedIndexTest, BuildUnknownColumnFails) {
  EXPECT_FALSE(SortedIndex::Build(Numbers(), "nope").ok());
}

TEST(SortedIndexTest, PointLookup) {
  ASSERT_OK_AND_ASSIGN(SortedIndex index, SortedIndex::Build(Numbers(), "k"));
  EXPECT_EQ(index.Lookup(Value::Int(3)), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(index.Lookup(Value::Int(4)), (std::vector<size_t>{}));
}

TEST(SortedIndexTest, RangeInclusiveBothEnds) {
  ASSERT_OK_AND_ASSIGN(SortedIndex index, SortedIndex::Build(Numbers(), "k"));
  EXPECT_EQ(index.Range(Value::Int(3), Value::Int(5)),
            (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(index.Range(Value::Int(0), Value::Int(100)),
            (std::vector<size_t>{0, 1, 2, 3, 5}));
  EXPECT_TRUE(index.Range(Value::Int(6), Value::Int(8)).empty());
}

TEST(SortedIndexTest, MinMax) {
  ASSERT_OK_AND_ASSIGN(SortedIndex index, SortedIndex::Build(Numbers(), "k"));
  ASSERT_OK_AND_ASSIGN(Value min, index.Min());
  ASSERT_OK_AND_ASSIGN(Value max, index.Max());
  EXPECT_EQ(min, Value::Int(1));
  EXPECT_EQ(max, Value::Int(9));
}

TEST(SortedIndexTest, EmptyIndex) {
  Relation empty("E", Schema({{"k", ValueType::kInt, false}}));
  ASSERT_OK_AND_ASSIGN(SortedIndex index, SortedIndex::Build(empty, "k"));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.Min().ok());
  EXPECT_TRUE(index.Lookup(Value::Int(1)).empty());
}

TEST(SortedIndexTest, StringRanges) {
  Relation sonars = MakeRelation(
      "S", Schema({{"Sonar", ValueType::kString, false}}),
      {{"BQQ-2"}, {"BQQ-5"}, {"BQQ-8"}, {"BQS-04"}, {"TACTAS"}});
  ASSERT_OK_AND_ASSIGN(SortedIndex index, SortedIndex::Build(sonars, "Sonar"));
  // The paper's R10 range.
  EXPECT_EQ(index.Range(Value::String("BQQ-2"), Value::String("BQQ-8")),
            (std::vector<size_t>{0, 1, 2}));
}

// Property sweep: Range(lo, hi) must agree with a linear scan for every
// (lo, hi) pair over a fixed domain.
class IndexRangeProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(IndexRangeProperty, AgreesWithLinearScan) {
  Relation rel = Numbers();
  ASSERT_OK_AND_ASSIGN(SortedIndex index, SortedIndex::Build(rel, "k"));
  auto [lo, hi] = GetParam();
  std::vector<size_t> expected;
  for (size_t r = 0; r < rel.size(); ++r) {
    const Value& v = rel.row(r).at(0);
    if (v.is_null()) continue;
    if (v >= Value::Int(lo) && v <= Value::Int(hi)) expected.push_back(r);
  }
  EXPECT_EQ(index.Range(Value::Int(lo), Value::Int(hi)), expected)
      << "[" << lo << ", " << hi << "]";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexRangeProperty,
    ::testing::Values(std::pair{0, 0}, std::pair{0, 1}, std::pair{1, 1},
                      std::pair{1, 3}, std::pair{2, 4}, std::pair{3, 3},
                      std::pair{3, 9}, std::pair{5, 9}, std::pair{6, 8},
                      std::pair{9, 9}, std::pair{10, 20},
                      std::pair{5, 1}));  // inverted range -> empty

}  // namespace
}  // namespace iqs
