// Cross-validation of the two query front ends: the same
// selection/join/projection expressed in SQL and in QUEL must return
// the same multiset of tuples. QUEL lowers onto the SQL binder and
// executor, so the two agreeing would only compare the executor with
// itself; both must also match testing_util::TupleAtATimeRows, an
// evaluation of the SQL statement that shares no executor code.

#include <algorithm>

#include "gtest/gtest.h"
#include "quel/quel_session.h"
#include "sql/sql_executor.h"
#include "sql/sql_parser.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

struct EquivalenceCase {
  const char* label;
  const char* sql;
  const char* quel;  // script; the last retrieve is the result
};

// gtest_discover_tests names each case after its printed parameter;
// print the label rather than the pointer bytes, which change with
// every load address, so the ctest names are the same on every build.
void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.label; }

class SqlQuelEquivalence : public ::testing::TestWithParam<EquivalenceCase> {
 protected:
  static std::vector<std::string> SortedRows(const std::vector<Tuple>& rows) {
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (const Tuple& t : rows) out.push_back(t.ToString());
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_P(SqlQuelEquivalence, SameRows) {
  const EquivalenceCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(auto db, BuildShipDatabase());
  ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect(c.sql));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> oracle,
                       testing_util::TupleAtATimeRows(*db, stmt));
  SqlExecutor sql(db.get());
  ASSERT_OK_AND_ASSIGN(Relation sql_result, sql.Execute(stmt));
  QuelSession quel(db.get());
  ASSERT_OK_AND_ASSIGN(auto quel_result, quel.ExecuteScript(c.quel));
  const std::vector<std::string> expected = SortedRows(oracle);
  EXPECT_FALSE(expected.empty()) << c.label;
  EXPECT_EQ(SortedRows(sql_result.rows()), expected) << c.label << ": SQL";
  EXPECT_EQ(SortedRows(quel_result.relation.rows()), expected)
      << c.label << ": QUEL";
}

INSTANTIATE_TEST_SUITE_P(
    Battery, SqlQuelEquivalence,
    ::testing::Values(
        EquivalenceCase{
            "projection",
            "SELECT Id, Class FROM SUBMARINE",
            "range of r is SUBMARINE\nretrieve (r.Id, r.Class)"},
        EquivalenceCase{
            "selection",
            "SELECT Id FROM SUBMARINE WHERE Class = '0204'",
            "range of r is SUBMARINE\n"
            "retrieve (r.Id) where r.Class = \"0204\""},
        EquivalenceCase{
            "range-selection",
            "SELECT Class FROM CLASS WHERE Displacement >= 7250 AND "
            "Displacement <= 30000",
            "range of c is CLASS\nretrieve (c.Class) where c.Displacement "
            ">= 7250 and c.Displacement <= 30000"},
        EquivalenceCase{
            "two-way join",
            "SELECT SUBMARINE.Name, CLASS.Type FROM SUBMARINE, CLASS WHERE "
            "SUBMARINE.Class = CLASS.Class AND CLASS.Displacement > 8000",
            "range of s is SUBMARINE\nrange of c is CLASS\n"
            "retrieve (s.Name, c.Type) where s.Class = c.Class and "
            "c.Displacement > 8000"},
        EquivalenceCase{
            "three-way join",
            "SELECT SUBMARINE.Name, CLASS.Type FROM SUBMARINE, CLASS, "
            "INSTALL WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = "
            "INSTALL.SHIP AND INSTALL.SONAR = 'BQS-04'",
            "range of s is SUBMARINE\nrange of c is CLASS\n"
            "range of i is INSTALL\n"
            "retrieve (s.Name, c.Type) where s.Class = c.Class and s.Id = "
            "i.Ship and i.Sonar = \"BQS-04\""},
        EquivalenceCase{
            "distinct",
            "SELECT DISTINCT Class FROM SUBMARINE",
            "range of r is SUBMARINE\nretrieve unique (r.Class)"},
        EquivalenceCase{
            "disjunction",
            "SELECT Class FROM CLASS WHERE Type = 'SSBN' OR Displacement < "
            "3000",
            "range of c is CLASS\nretrieve (c.Class) where c.Type = "
            "\"SSBN\" or c.Displacement < 3000"},
        EquivalenceCase{
            "negation",
            "SELECT Sonar FROM SONAR WHERE NOT SonarType = 'BQQ'",
            "range of s is SONAR\nretrieve (s.Sonar) where not s.SonarType "
            "= \"BQQ\""},
        EquivalenceCase{
            "numeric literal against char column",
            "SELECT Id FROM SUBMARINE WHERE Class = 0204",
            "range of r is SUBMARINE\nretrieve (r.Id) where r.Class = "
            "0204"},
        EquivalenceCase{
            "self join",
            "SELECT b.Id FROM SUBMARINE a, SUBMARINE b WHERE a.Class = "
            "b.Class AND a.Id = 'SSN671'",
            "range of a is SUBMARINE\nrange of b is SUBMARINE\n"
            "retrieve (b.Id) where a.Class = b.Class and a.Id = "
            "\"SSN671\""}));

}  // namespace
}  // namespace iqs
