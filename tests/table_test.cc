#include "storage/table.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace preserial::storage {
namespace {

Schema InventorySchema() {
  return Schema::Create(
             {
                 ColumnDef{"id", ValueType::kInt64, false},
                 ColumnDef{"qty", ValueType::kInt64, false},
                 ColumnDef{"note", ValueType::kString, true},
             },
             0)
      .value();
}

Row MakeRow(int64_t id, int64_t qty, const char* note = nullptr) {
  return Row({Value::Int(id), Value::Int(qty),
              note == nullptr ? Value::Null() : Value::String(note)});
}

// Sets the qty cell the way an SST installs a write: read the row, set the
// cell, write the row back.
Status SetQty(Table& t, int64_t id, int64_t qty) {
  PRESERIAL_ASSIGN_OR_RETURN(Row row, t.GetByKey(Value::Int(id)));
  row.Set(1, Value::Int(qty));
  return t.UpdateByKey(Value::Int(id), std::move(row));
}

TEST(TableTest, InsertAndGet) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.Insert(MakeRow(1, 10, "a")).ok());
  ASSERT_TRUE(t.Insert(MakeRow(2, 20)).ok());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.GetByKey(Value::Int(1)).value().at(1), Value::Int(10));
  EXPECT_EQ(t.GetColumnByKey(Value::Int(2), 1).value(), Value::Int(20));
  EXPECT_FALSE(t.GetByKey(Value::Int(3)).ok());
}

TEST(TableTest, InsertRejectsDuplicateKey) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.Insert(MakeRow(1, 10)).ok());
  EXPECT_EQ(t.Insert(MakeRow(1, 99)).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, InsertRejectsSchemaViolations) {
  Table t("inv", InventorySchema());
  EXPECT_FALSE(t.Insert(Row({Value::Int(1)})).ok());  // Arity.
  EXPECT_FALSE(
      t.Insert(Row({Value::String("x"), Value::Int(1), Value::Null()})).ok());
}

TEST(TableTest, UpdateByKeyReplacesRow) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.Insert(MakeRow(1, 10)).ok());
  ASSERT_TRUE(t.UpdateByKey(Value::Int(1), MakeRow(1, 11, "up")).ok());
  EXPECT_EQ(t.GetColumnByKey(Value::Int(1), 1).value(), Value::Int(11));
  EXPECT_FALSE(t.UpdateByKey(Value::Int(9), MakeRow(9, 1)).ok());
}

TEST(TableTest, UpdateCanChangePrimaryKey) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.Insert(MakeRow(1, 10)).ok());
  ASSERT_TRUE(t.UpdateByKey(Value::Int(1), MakeRow(5, 10)).ok());
  EXPECT_FALSE(t.GetByKey(Value::Int(1)).ok());
  EXPECT_TRUE(t.GetByKey(Value::Int(5)).ok());
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(TableTest, UpdatePkCollisionRejected) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.Insert(MakeRow(1, 10)).ok());
  ASSERT_TRUE(t.Insert(MakeRow(2, 20)).ok());
  EXPECT_EQ(t.UpdateByKey(Value::Int(1), MakeRow(2, 99)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t.GetColumnByKey(Value::Int(2), 1).value(), Value::Int(20));
}

TEST(TableTest, DeleteFreesSlotForReuse) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.Insert(MakeRow(1, 10)).ok());
  ASSERT_TRUE(t.DeleteByKey(Value::Int(1)).ok());
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_FALSE(t.DeleteByKey(Value::Int(1)).ok());
  // Reinsert reuses the freed slot; invariants stay intact.
  ASSERT_TRUE(t.Insert(MakeRow(2, 20)).ok());
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(TableTest, ScanIsKeyOrdered) {
  Table t("inv", InventorySchema());
  for (int64_t id : {5, 1, 9, 3, 7}) {
    ASSERT_TRUE(t.Insert(MakeRow(id, id * 10)).ok());
  }
  std::vector<int64_t> keys;
  t.Scan([&](const Value& k, const Row&) {
    keys.push_back(k.as_int());
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3, 5, 7, 9}));
}

TEST(TableTest, ScanRange) {
  Table t("inv", InventorySchema());
  for (int64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(t.Insert(MakeRow(id, id)).ok());
  }
  std::vector<int64_t> keys;
  t.ScanRange(Value::Int(3), Value::Int(6), [&](const Value& k, const Row&) {
    keys.push_back(k.as_int());
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{3, 4, 5, 6}));
}

TEST(TableConstraintTest, AddConstraintValidatesExistingRows) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.Insert(MakeRow(1, -5)).ok());
  const CheckConstraint nonneg("qty_nonneg", 1, CompareOp::kGe,
                               Value::Int(0));
  EXPECT_EQ(t.AddConstraint(nonneg).code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(SetQty(t, 1, 5).ok());
  EXPECT_TRUE(t.AddConstraint(nonneg).ok());
}

TEST(TableConstraintTest, ConstraintEnforcedOnInsertAndUpdate) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.AddConstraint(CheckConstraint("qty_nonneg", 1, CompareOp::kGe,
                                              Value::Int(0)))
                  .ok());
  EXPECT_EQ(t.Insert(MakeRow(1, -1)).status().code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(t.Insert(MakeRow(1, 0)).ok());
  EXPECT_EQ(SetQty(t, 1, -1).code(), StatusCode::kConstraintViolation);
  // The failed update left the row unchanged.
  EXPECT_EQ(t.GetColumnByKey(Value::Int(1), 1).value(), Value::Int(0));
}

TEST(TableConstraintTest, ConstraintsOnFiltersByColumn) {
  Table t("inv", InventorySchema());
  ASSERT_TRUE(t.AddConstraint(CheckConstraint("a", 1, CompareOp::kGe,
                                              Value::Int(0)))
                  .ok());
  ASSERT_TRUE(t.AddConstraint(CheckConstraint("b", 1, CompareOp::kLe,
                                              Value::Int(100)))
                  .ok());
  EXPECT_EQ(t.ConstraintsOn(1).size(), 2u);
  EXPECT_TRUE(t.ConstraintsOn(0).empty());
}

TEST(TableRandomizedTest, MixedWorkloadKeepsInvariants) {
  Table t("inv", InventorySchema());
  Rng rng(555);
  std::map<int64_t, int64_t> reference;  // id -> qty
  for (int op = 0; op < 3000; ++op) {
    const int64_t id = rng.NextInt(0, 99);
    switch (rng.NextBounded(3)) {
      case 0: {
        const bool ok = t.Insert(MakeRow(id, id)).ok();
        EXPECT_EQ(ok, reference.count(id) == 0);
        if (ok) reference[id] = id;
        break;
      }
      case 1: {
        const int64_t qty = rng.NextInt(0, 1000);
        const bool ok = SetQty(t, id, qty).ok();
        EXPECT_EQ(ok, reference.count(id) > 0);
        if (ok) reference[id] = qty;
        break;
      }
      case 2: {
        const bool ok = t.DeleteByKey(Value::Int(id)).ok();
        EXPECT_EQ(ok, reference.erase(id) > 0);
        break;
      }
    }
    if (op % 101 == 0) {
      ASSERT_TRUE(t.CheckInvariants().ok());
    }
  }
  EXPECT_EQ(t.row_count(), reference.size());
  for (const auto& [id, qty] : reference) {
    EXPECT_EQ(t.GetColumnByKey(Value::Int(id), 1).value(), Value::Int(qty));
  }
}

}  // namespace
}  // namespace preserial::storage
