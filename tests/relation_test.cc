#include "relational/relation.h"

#include <cmath>
#include <string>

#include "gtest/gtest.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::MakeRelation;

Schema ShipSchema() {
  return Schema({{"Id", ValueType::kString, true},
                 {"Name", ValueType::kString, false},
                 {"Displacement", ValueType::kInt, false}});
}

TEST(SchemaTest, CreateRejectsDuplicatesCaseInsensitive) {
  EXPECT_FALSE(Schema::Create({{"Id", ValueType::kString, false},
                               {"ID", ValueType::kInt, false}})
                   .ok());
  EXPECT_FALSE(Schema::Create({{"", ValueType::kString, false}}).ok());
  EXPECT_OK(Schema::Create({{"A", ValueType::kInt, false},
                            {"B", ValueType::kInt, false}})
                .status());
}

TEST(SchemaTest, IndexOfIsCaseInsensitive) {
  Schema schema = ShipSchema();
  ASSERT_OK_AND_ASSIGN(size_t idx, schema.IndexOf("displacement"));
  EXPECT_EQ(idx, 2u);
  EXPECT_TRUE(schema.Contains("NAME"));
  EXPECT_FALSE(schema.IndexOf("Draft").ok());
}

TEST(SchemaTest, KeyIndices) {
  Schema schema = ShipSchema();
  EXPECT_EQ(schema.KeyIndices(), (std::vector<size_t>{0}));
}

TEST(SchemaTest, ToString) {
  EXPECT_EQ(ShipSchema().ToString(),
            "(Id:string key, Name:string, Displacement:integer)");
}

TEST(TupleTest, ConcatAndToString) {
  Tuple a({Value::String("x"), Value::Int(1)});
  Tuple b({Value::Real(2.5)});
  Tuple c = Tuple::Concat(a, b);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.ToString(), "x|1|2.5");
}

TEST(TupleTest, LexicographicOrder) {
  Tuple a({Value::Int(1), Value::Int(2)});
  Tuple b({Value::Int(1), Value::Int(3)});
  Tuple c({Value::Int(1)});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // prefix sorts first
  EXPECT_FALSE(a < a);
}

TEST(RelationTest, InsertChecksArity) {
  Relation rel("SHIP", ShipSchema());
  Status s = rel.Insert(Tuple({Value::String("a")}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, InsertChecksTypes) {
  Relation rel("SHIP", ShipSchema());
  Status s = rel.Insert(
      Tuple({Value::String("a"), Value::String("b"), Value::String("c")}));
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST(RelationTest, InsertAcceptsNulls) {
  Relation rel("SHIP", ShipSchema());
  EXPECT_OK(rel.Insert(
      Tuple({Value::String("a"), Value::Null(), Value::Null()})));
}

TEST(RelationTest, InsertWidensIntToReal) {
  Relation rel("R", Schema({{"x", ValueType::kReal, false}}));
  ASSERT_OK(rel.Insert(Tuple({Value::Int(3)})));
  EXPECT_EQ(rel.row(0).at(0).type(), ValueType::kReal);
  EXPECT_DOUBLE_EQ(rel.row(0).at(0).AsReal(), 3.0);
}

TEST(RelationTest, KeyUniquenessEnforced) {
  Relation rel("SHIP", ShipSchema());
  ASSERT_OK(rel.Insert(
      Tuple({Value::String("S1"), Value::String("A"), Value::Int(100)})));
  Status dup = rel.Insert(
      Tuple({Value::String("S1"), Value::String("B"), Value::Int(200)}));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.size(), 1u);
}

Tuple Ship(const std::string& id) {
  return Tuple({Value::String(id), Value::String("N"), Value::Int(1)});
}

TEST(RelationTest, DuplicateKeyMessageNamesTheRow) {
  Relation rel("SHIP", ShipSchema());
  ASSERT_OK(rel.Insert(Ship("S1")));
  Status dup = rel.Insert(Ship("S1"));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(dup.message(),
            "duplicate key inserting into SHIP: " + Ship("S1").ToString());
}

TEST(RelationTest, DuplicateOfARowAppendedUnchecked) {
  Relation rel("SHIP", ShipSchema());
  ASSERT_OK(rel.Insert(Ship("S1")));  // builds the key index
  rel.AppendUnchecked(Ship("S2"));
  rel.AppendUnchecked(Ship("S3"));
  EXPECT_EQ(rel.Insert(Ship("S3")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.Insert(Ship("S2")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.Insert(Ship("S1")).code(), StatusCode::kAlreadyExists);
  EXPECT_OK(rel.Insert(Ship("S4")));
  EXPECT_EQ(rel.size(), 4u);
}

TEST(RelationTest, DuplicateAfterDeleteWhere) {
  Relation rel("SHIP", ShipSchema());
  for (const char* id : {"S1", "S2", "S3"}) ASSERT_OK(rel.Insert(Ship(id)));
  // Removing S2 moves S3 to S2's position.
  EXPECT_EQ(rel.DeleteWhere([](const Tuple& t) {
              return t.at(0) == Value::String("S2");
            }),
            1u);
  EXPECT_EQ(rel.Insert(Ship("S3")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.Insert(Ship("S1")).code(), StatusCode::kAlreadyExists);
  EXPECT_OK(rel.Insert(Ship("S2")));
  EXPECT_EQ(rel.Insert(Ship("S2")).code(), StatusCode::kAlreadyExists);
}

TEST(RelationTest, DuplicateAfterSortBy) {
  Relation rel("SHIP", ShipSchema());
  for (const char* id : {"S3", "S1", "S2"}) ASSERT_OK(rel.Insert(Ship(id)));
  ASSERT_OK(rel.SortBy({"Id"}));
  for (const char* id : {"S1", "S2", "S3"}) {
    EXPECT_EQ(rel.Insert(Ship(id)).code(), StatusCode::kAlreadyExists) << id;
  }
  EXPECT_OK(rel.Insert(Ship("S0")));
  EXPECT_EQ(rel.Insert(Ship("S0")).code(), StatusCode::kAlreadyExists);
}

TEST(RelationTest, DuplicateAfterClear) {
  Relation rel("SHIP", ShipSchema());
  ASSERT_OK(rel.Insert(Ship("S1")));
  ASSERT_OK(rel.Insert(Ship("S2")));
  rel.Clear();
  EXPECT_OK(rel.Insert(Ship("S2")));
  EXPECT_EQ(rel.Insert(Ship("S2")).code(), StatusCode::kAlreadyExists);
  EXPECT_OK(rel.Insert(Ship("S1")));
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, MultiColumnKey) {
  Relation rel("INSTALL", Schema({{"Ship", ValueType::kString, true},
                                  {"Slot", ValueType::kInt, true},
                                  {"Sonar", ValueType::kString, false}}));
  auto row = [](const char* ship, int64_t slot, const char* sonar) {
    return Tuple(
        {Value::String(ship), Value::Int(slot), Value::String(sonar)});
  };
  ASSERT_OK(rel.Insert(row("S1", 1, "BQQ-2")));
  EXPECT_OK(rel.Insert(row("S1", 2, "BQQ-2")));
  EXPECT_OK(rel.Insert(row("S2", 1, "BQQ-2")));
  EXPECT_EQ(rel.Insert(row("S1", 1, "BQS-04")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.Insert(row("S2", 1, "BQS-04")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_OK(rel.Insert(row("S2", 2, "BQS-04")));
}

TEST(RelationTest, KeyEqualityCrossesIntAndReal) {
  Relation rel("R", Schema({{"x", ValueType::kReal, true}}));
  rel.AppendUnchecked(Tuple({Value::Int(5)}));
  EXPECT_EQ(rel.Insert(Tuple({Value::Real(5.0)})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.Insert(Tuple({Value::Int(5)})).code(),
            StatusCode::kAlreadyExists);
  ASSERT_OK(rel.Insert(Tuple({Value::Real(0.0)})));
  EXPECT_EQ(rel.Insert(Tuple({Value::Real(-0.0)})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_OK(rel.Insert(Tuple({Value::Real(5.5)})));
}

TEST(RelationTest, NullKeysAreDuplicates) {
  Relation rel("SHIP", ShipSchema());
  ASSERT_OK(rel.Insert(Tuple({Value::Null(), Value::Null(), Value::Null()})));
  EXPECT_EQ(
      rel.Insert(Tuple({Value::Null(), Value::Null(), Value::Null()})).code(),
      StatusCode::kAlreadyExists);
}

TEST(RelationTest, NanKeyEqualsEveryNumber) {
  // Value::Compare reads NaN as equal to every number; the key check
  // keeps that reading.
  Relation rel("R", Schema({{"x", ValueType::kReal, true}}));
  ASSERT_OK(rel.Insert(Tuple({Value::Real(1.0)})));
  EXPECT_EQ(rel.Insert(Tuple({Value::Real(std::nan(""))})).code(),
            StatusCode::kAlreadyExists);
  rel.AppendUnchecked(Tuple({Value::Real(std::nan(""))}));
  EXPECT_EQ(rel.Insert(Tuple({Value::Real(7.0)})).code(),
            StatusCode::kAlreadyExists);
}

TEST(RelationTest, CopiedRelationsCheckKeysIndependently) {
  Relation rel("SHIP", ShipSchema());
  ASSERT_OK(rel.Insert(Ship("S1")));
  Relation copy = rel;
  ASSERT_OK(copy.Insert(Ship("S2")));
  EXPECT_OK(rel.Insert(Ship("S2")));
  EXPECT_EQ(copy.Insert(Ship("S1")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.Insert(Ship("S2")).code(), StatusCode::kAlreadyExists);
}

TEST(RelationTest, InsertTextParsesPerSchema) {
  Relation rel = MakeRelation("SHIP", ShipSchema(),
                              {{"S1", "Alpha", "100"}, {"S2", "Beta", "200"}});
  EXPECT_EQ(rel.size(), 2u);
  ASSERT_OK_AND_ASSIGN(Value v, rel.GetValue(1, "Displacement"));
  EXPECT_EQ(v, Value::Int(200));
}

TEST(RelationTest, DeleteWhere) {
  Relation rel = MakeRelation(
      "SHIP", ShipSchema(),
      {{"S1", "A", "100"}, {"S2", "B", "200"}, {"S3", "C", "300"}});
  size_t removed = rel.DeleteWhere(
      [](const Tuple& t) { return t.at(2) >= Value::Int(200); });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.row(0).at(0), Value::String("S1"));
}

TEST(RelationTest, ColumnAndActiveDomain) {
  Relation rel = MakeRelation(
      "SHIP", ShipSchema(),
      {{"S1", "A", "300"}, {"S2", "B", "100"}, {"S3", "C", ""}});
  ASSERT_OK_AND_ASSIGN(auto domain, rel.ActiveDomain("Displacement"));
  EXPECT_EQ(domain.first, Value::Int(100));
  EXPECT_EQ(domain.second, Value::Int(300));
  ASSERT_OK_AND_ASSIGN(std::vector<Value> col, rel.Column("Displacement"));
  EXPECT_EQ(col.size(), 3u);
  EXPECT_TRUE(col[2].is_null());
}

TEST(RelationTest, ActiveDomainEmptyColumnIsNotFound) {
  Relation rel("SHIP", ShipSchema());
  EXPECT_EQ(rel.ActiveDomain("Displacement").status().code(),
            StatusCode::kNotFound);
}

TEST(RelationTest, SortByMultipleKeys) {
  Relation rel = MakeRelation(
      "SHIP", ShipSchema(),
      {{"S3", "B", "100"}, {"S1", "B", "50"}, {"S2", "A", "100"}});
  ASSERT_OK(rel.SortBy({"Name", "Displacement"}));
  EXPECT_EQ(testing_util::ColumnText(rel, "Id"),
            (std::vector<std::string>{"S2", "S1", "S3"}));
  EXPECT_FALSE(rel.SortBy({"Nope"}).ok());
}

TEST(RelationTest, ToTableRendersHeaderAndRows) {
  Relation rel = MakeRelation("SHIP", ShipSchema(), {{"S1", "Alpha", "42"}});
  std::string table = rel.ToTable();
  EXPECT_NE(table.find("| Id "), std::string::npos);
  EXPECT_NE(table.find("Alpha"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
}

}  // namespace
}  // namespace iqs
