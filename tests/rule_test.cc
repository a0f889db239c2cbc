#include "rules/rule.h"

#include "gtest/gtest.h"
#include "rules/clause.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

TEST(ClauseTest, EqualsAndRange) {
  Clause eq = Clause::Equals("Type", Value::String("SSBN"));
  EXPECT_TRUE(eq.IsPoint());
  EXPECT_TRUE(eq.Satisfies(Value::String("SSBN")));
  EXPECT_FALSE(eq.Satisfies(Value::String("SSN")));

  ASSERT_OK_AND_ASSIGN(
      Clause range,
      Clause::Range("Displacement", Value::Int(7250), Value::Int(30000)));
  EXPECT_FALSE(range.IsPoint());
  EXPECT_TRUE(range.Satisfies(Value::Int(8000)));
  EXPECT_FALSE(range.Satisfies(Value::Int(100)));
  EXPECT_FALSE(Clause::Range("X", Value::Int(2), Value::Int(1)).ok());
}

TEST(ClauseTest, QualifierAndBase) {
  Clause c = Clause::Equals("x.Class", Value::String("0203"));
  EXPECT_EQ(c.BaseAttribute(), "Class");
  EXPECT_EQ(c.Qualifier(), "x");
  Clause bare = Clause::Equals("Class", Value::String("0203"));
  EXPECT_EQ(bare.BaseAttribute(), "Class");
  EXPECT_EQ(bare.Qualifier(), "");
}

TEST(ClauseTest, TripleStringMatchesPaperForm) {
  ASSERT_OK_AND_ASSIGN(
      Clause c, Clause::Range("Employee.Age", Value::Int(18), Value::Int(65)));
  EXPECT_EQ(c.ToTripleString(), "(18, Employee.Age, 65)");
}

TEST(ClauseTest, ConditionStringForms) {
  ASSERT_OK_AND_ASSIGN(Clause range, Clause::Range("D", Value::Int(1),
                                                   Value::Int(2)));
  EXPECT_EQ(range.ToConditionString(), "1 <= D <= 2");
  EXPECT_EQ(Clause::Equals("T", Value::String("SSBN")).ToConditionString(),
            "T = SSBN");
  Clause at_least("D", Interval::AtLeast(Value::Int(5), true));
  EXPECT_EQ(at_least.ToConditionString(), "D > 5");
  Clause at_most("D", Interval::AtMost(Value::Int(5)));
  EXPECT_EQ(at_most.ToConditionString(), "D <= 5");
  Clause all("D", Interval::All());
  EXPECT_EQ(all.ToConditionString(), "D unrestricted");
}

Rule MakeR9() {
  Rule r;
  r.id = 9;
  r.scheme = "Displacement->Type";
  r.source_relation = "CLASS";
  r.lhs.push_back(
      *Clause::Range("Displacement", Value::Int(7250), Value::Int(30000)));
  r.rhs.clause = Clause::Equals("Type", Value::String("SSBN"));
  r.rhs.isa_type = "SSBN";
  r.support = 4;
  return r;
}

TEST(RuleTest, BodyPrefersIsaReading) {
  Rule r = MakeR9();
  EXPECT_EQ(r.Body(), "if 7250 <= Displacement <= 30000 then x isa SSBN");
  r.rhs.isa_type.clear();
  EXPECT_EQ(r.Body(), "if 7250 <= Displacement <= 30000 then Type = SSBN");
}

TEST(RuleTest, ToStringIncludesIdAndSupport) {
  EXPECT_EQ(MakeR9().ToString(),
            "R9: if 7250 <= Displacement <= 30000 then x isa SSBN  "
            "[support 4]");
}

TEST(RuleTest, MultiClauseLhsJoinsWithAnd) {
  Rule r = MakeR9();
  r.lhs.push_back(Clause::Equals("Category", Value::String("Subsurface")));
  EXPECT_NE(r.Body().find(" and Category = Subsurface"), std::string::npos);
}

TEST(RuleSetTest, AddAssignsSequentialIds) {
  RuleSet set;
  Rule a;
  a.rhs.clause = Clause::Equals("T", Value::String("x"));
  Rule b = a;
  set.Add(a);
  set.Add(b);
  EXPECT_EQ(set.rule(0).id, 1);
  EXPECT_EQ(set.rule(1).id, 2);
  EXPECT_EQ(set.size(), 2u);
}

TEST(RuleSetTest, AddKeepsExplicitIds) {
  RuleSet set;
  Rule r = MakeR9();
  set.Add(r);
  EXPECT_EQ(set.rule(0).id, 9);
  Rule next;
  next.rhs.clause = Clause::Equals("T", Value::String("y"));
  set.Add(next);
  EXPECT_EQ(set.rule(1).id, 10);
}

TEST(RuleSetTest, PruneAndRenumber) {
  RuleSet set;
  Rule low = MakeR9();
  low.id = 0;
  low.support = 1;
  set.Add(MakeR9());
  set.Add(low);
  EXPECT_EQ(set.Prune(3), 1u);
  EXPECT_EQ(set.size(), 1u);
  set.Renumber();
  EXPECT_EQ(set.rule(0).id, 1);
}

// A rule over hand-picked attribute spellings, for the index tests.
Rule Over(std::vector<std::string> lhs, const std::string& rhs,
          const std::string& isa_type, int64_t support) {
  Rule r;
  for (const std::string& attribute : lhs) {
    r.lhs.push_back(Clause::Equals(attribute, Value::Int(1)));
  }
  r.rhs.clause = Clause::Equals(rhs, Value::String("SSN"));
  r.rhs.isa_type = isa_type;
  r.support = support;
  return r;
}

using Positions = RuleSet::Positions;

TEST(RuleSetTest, IndexesBaseAttributesAndIsaTypesInRuleOrder) {
  RuleSet set;
  set.Add(Over({"x.Sonar"}, "x.Type", "SSN", 5));                  // 0
  set.Add(Over({"INSTALL.Sonar", "sonar"}, "Class", "", 5));      // 1
  set.Add(Over({"Displacement", "SONAR"}, "CLASS.Type", "SSBN", 1));  // 2
  set.Add(Over({}, "type", "SSN", 5));                            // 3
  // Every spelling of one base name reaches one list; a rule with two
  // clauses over it is listed once.
  for (const char* spelling : {"Sonar", "y.SONAR", "INSTALL.sonar"}) {
    EXPECT_EQ(set.WithLhsOn(spelling), (Positions{0, 1, 2})) << spelling;
  }
  EXPECT_EQ(set.WithLhsOn("CLASS.Displacement"), (Positions{2}));
  EXPECT_EQ(set.WithRhsOn("TYPE"), (Positions{0, 2, 3}));
  EXPECT_EQ(set.WithRhsOn("s.Class"), (Positions{1}));
  EXPECT_TRUE(set.WithLhsOn("Type").empty());
  EXPECT_TRUE(set.WithRhsOn("Nope").empty());
  ASSERT_EQ(set.by_isa_type().size(), 2u);
  EXPECT_EQ(set.by_isa_type().at("SSN"), (Positions{0, 3}));
  EXPECT_EQ(set.by_isa_type().at("SSBN"), (Positions{2}));
}

TEST(RuleSetTest, PruneRebuildsTheIndex) {
  RuleSet set;
  set.Add(Over({"x.Sonar"}, "x.Type", "SSN", 5));
  set.Add(Over({"Displacement", "Sonar"}, "CLASS.Type", "SSBN", 1));
  set.Add(Over({"Sonar"}, "Class", "", 5));
  set.Add(Over({"Displacement"}, "Type", "SSBN", 5));
  EXPECT_EQ(set.WithLhsOn("Sonar"), (Positions{0, 1, 2}));
  ASSERT_EQ(set.Prune(3), 1u);
  EXPECT_EQ(set.WithLhsOn("Sonar"), (Positions{0, 1}));
  EXPECT_EQ(set.WithLhsOn("Displacement"), (Positions{2}));
  EXPECT_EQ(set.WithRhsOn("Type"), (Positions{0, 2}));
  EXPECT_EQ(set.by_isa_type().at("SSBN"), (Positions{2}));
  ASSERT_EQ(set.Prune(10), 3u);
  EXPECT_TRUE(set.WithLhsOn("Sonar").empty());
  EXPECT_TRUE(set.WithRhsOn("Type").empty());
  EXPECT_TRUE(set.by_isa_type().empty());
}

TEST(RuleSetTest, CopiesCarryTheirOwnIndex) {
  RuleSet set;
  set.Add(Over({"Sonar"}, "Type", "SSN", 5));
  RuleSet copy = set;
  copy.Add(Over({"Sonar"}, "Type", "SSBN", 5));
  EXPECT_EQ(copy.WithLhsOn("Sonar"), (Positions{0, 1}));
  EXPECT_EQ(copy.by_isa_type().at("SSBN"), (Positions{1}));
  EXPECT_EQ(set.WithLhsOn("Sonar"), (Positions{0}));
  EXPECT_EQ(set.by_isa_type().count("SSBN"), 0u);
  RuleSet moved = std::move(copy);
  EXPECT_EQ(moved.WithRhsOn("Type"), (Positions{0, 1}));
}

TEST(RuleSetTest, ToStringOneRulePerLine) {
  RuleSet set;
  set.Add(MakeR9());
  set.Add(MakeR9());
  std::string text = set.ToString();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

}  // namespace
}  // namespace iqs
