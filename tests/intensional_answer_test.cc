// IntensionalAnswer is a value over one shared, immutable body: a copy
// shares the statements, and building on a copy clones the body first,
// so no holder ever sees another holder's additions.

#include "inference/intensional_answer.h"

#include <string>
#include <utility>

#include "gtest/gtest.h"

namespace iqs {
namespace {

IntensionalStatement Statement(const std::string& type_name, int rule_id) {
  IntensionalStatement s;
  s.direction = AnswerDirection::kContains;
  s.facts.push_back(Fact::Type("x", type_name));
  s.rule_ids.push_back(rule_id);
  return s;
}

TEST(IntensionalAnswerTest, NeverBuiltAnswerIsEmpty) {
  IntensionalAnswer answer;
  EXPECT_TRUE(answer.empty());
  EXPECT_EQ(answer.size(), 0u);
  EXPECT_TRUE(answer.statements().empty());
  EXPECT_FALSE(answer.empty_proof().has_value());
  EXPECT_EQ(answer.ToString(), "");
  IntensionalAnswer copy = answer;
  EXPECT_TRUE(copy.statements().empty());
  EXPECT_FALSE(copy.empty_proof().has_value());
}

TEST(IntensionalAnswerTest, CopySharesTheStatements) {
  IntensionalAnswer answer;
  answer.Add(Statement("SSBN", 9));
  answer.Add(Statement("SSN", 10));
  IntensionalAnswer copy = answer;
  EXPECT_EQ(copy.statements().data(), answer.statements().data());
  IntensionalAnswer assigned;
  assigned = copy;
  EXPECT_EQ(assigned.statements().data(), answer.statements().data());
  EXPECT_EQ(assigned.ToString(), answer.ToString());
}

TEST(IntensionalAnswerTest, AddOnACopyLeavesTheOriginalUnchanged) {
  IntensionalAnswer answer;
  answer.Add(Statement("SSBN", 9));
  const std::string before = answer.ToString();
  IntensionalAnswer copy = answer;
  copy.Add(Statement("SSN", 10));
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_EQ(answer.ToString(), before);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_NE(copy.statements().data(), answer.statements().data());
  // The original still builds in place on its own body.
  const IntensionalStatement* data = answer.statements().data();
  answer.set_empty_proof("contradiction");
  EXPECT_EQ(answer.statements().data(), data);
}

TEST(IntensionalAnswerTest, EmptyProofOnACopyLeavesTheOriginalUnchanged) {
  IntensionalAnswer answer;
  answer.Add(Statement("SSBN", 9));
  IntensionalAnswer copy = answer;
  copy.set_empty_proof("facts cannot hold together");
  EXPECT_FALSE(answer.empty_proof().has_value());
  ASSERT_TRUE(copy.empty_proof().has_value());
  EXPECT_EQ(*copy.empty_proof(), "facts cannot hold together");
  EXPECT_EQ(copy.ToString(), answer.ToString());

  IntensionalAnswer reserved = copy;
  reserved.Reserve(8);
  EXPECT_GE(reserved.statements().capacity(), 8u);
  EXPECT_LT(copy.statements().capacity(), 8u);
  EXPECT_TRUE(reserved.empty_proof().has_value());
}

TEST(IntensionalAnswerTest, MovedFromAnswerIsEmpty) {
  IntensionalAnswer answer;
  answer.Add(Statement("SSBN", 9));
  const IntensionalStatement* data = answer.statements().data();
  IntensionalAnswer moved = std::move(answer);
  EXPECT_EQ(moved.statements().data(), data);
  EXPECT_TRUE(answer.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(answer.empty_proof().has_value());
}

}  // namespace
}  // namespace iqs
