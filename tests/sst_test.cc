#include "gtm/sst.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/database.h"
#include "storage/wal.h"

namespace preserial::gtm {
namespace {

using storage::CheckConstraint;
using storage::ColumnDef;
using storage::CompareOp;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;
using storage::WalRecordType;

// Table t(id, qty, price): rows 0..2 start at qty 10, price 100, and both
// non-key columns carry a non-negative CHECK.
class SstTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto storage = std::make_unique<storage::MemoryWalStorage>();
    wal_ = storage.get();
    db_ = std::make_unique<storage::Database>(std::move(storage));
    ASSERT_TRUE(db_->Open().ok());
    Schema schema = Schema::Create(
                        {
                            ColumnDef{"id", ValueType::kInt64, false},
                            ColumnDef{"qty", ValueType::kInt64, false},
                            ColumnDef{"price", ValueType::kInt64, false},
                        },
                        0)
                        .value();
    ASSERT_TRUE(db_->CreateTable("t", std::move(schema)).ok());
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(db_->InsertRow("t", Row({Value::Int(i), Value::Int(10),
                                           Value::Int(100)}))
                      .ok());
    }
    ASSERT_TRUE(db_->AddConstraint("t", CheckConstraint("nonneg", 1,
                                                        CompareOp::kGe,
                                                        Value::Int(0)))
                    .ok());
    ASSERT_TRUE(db_->AddConstraint("t", CheckConstraint("price_nonneg", 2,
                                                        CompareOp::kGe,
                                                        Value::Int(0)))
                    .ok());
    sst_ = std::make_unique<SstExecutor>(db_.get());
  }

  Value Qty(int64_t id) {
    return db_->GetTable("t").value()->GetColumnByKey(Value::Int(id), 1)
        .value();
  }

  std::string Log() const { return wal_->ReadAll().value(); }

  // Every row of t, in key order.
  static std::vector<Row> Rows(storage::Database* db) {
    std::vector<Row> rows;
    db->GetTable("t").value()->Scan([&rows](const Value&, const Row& row) {
      rows.push_back(row);
      return true;
    });
    return rows;
  }

  // Rebuilds a fresh database from the WAL image alone.
  std::unique_ptr<storage::Database> Recover() const {
    auto storage = std::make_unique<storage::MemoryWalStorage>();
    EXPECT_TRUE(storage->Reset(Log()).ok());
    auto db = std::make_unique<storage::Database>(std::move(storage));
    EXPECT_TRUE(db->Open().ok());
    return db;
  }

  void ExpectRecoveredMatchesLive() {
    std::unique_ptr<storage::Database> recovered = Recover();
    const std::vector<Row> live = Rows(db_.get());
    const std::vector<Row> replayed = Rows(recovered.get());
    ASSERT_EQ(replayed.size(), live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(replayed[i], live[i])
          << "row " << i << ": recovered " << replayed[i].ToString()
          << ", live " << live[i].ToString();
    }
    EXPECT_TRUE(recovered->GetTable("t").value()->CheckInvariants().ok());
  }

  storage::MemoryWalStorage* wal_ = nullptr;  // Owned by db_.
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<SstExecutor> sst_;
};

TEST_F(SstTest, AppliesAllWrites) {
  ASSERT_TRUE(sst_->Execute({
                     {"t", Value::Int(0), 1, Value::Int(5)},
                     {"t", Value::Int(1), 1, Value::Int(6)},
                 })
                  .ok());
  EXPECT_EQ(Qty(0), Value::Int(5));
  EXPECT_EQ(Qty(1), Value::Int(6));
  EXPECT_EQ(sst_->counters().executed, 1);
  EXPECT_EQ(sst_->counters().cells_written, 2);
}

TEST_F(SstTest, EmptyWriteSetCommitsTrivially) {
  ASSERT_TRUE(sst_->Execute({}).ok());
  EXPECT_EQ(sst_->counters().executed, 1);
}

TEST_F(SstTest, ConstraintViolationRollsBackAtomically) {
  const Status s = sst_->Execute({
      {"t", Value::Int(0), 1, Value::Int(5)},
      {"t", Value::Int(1), 1, Value::Int(-1)},  // Violates nonneg.
  });
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  // The first write was rolled back too.
  EXPECT_EQ(Qty(0), Value::Int(10));
  EXPECT_EQ(Qty(1), Value::Int(10));
  EXPECT_EQ(sst_->counters().failed, 1);
  EXPECT_EQ(sst_->counters().executed, 0);
}

TEST_F(SstTest, UnknownRowFailsCleanly) {
  const Status s = sst_->Execute({
      {"t", Value::Int(99), 1, Value::Int(5)},
  });
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(sst_->counters().failed, 1);
}

TEST_F(SstTest, PrimaryKeyColumnIsNotWritable) {
  const Status s = sst_->Execute({
      {"t", Value::Int(0), 1, Value::Int(5)},
      {"t", Value::Int(1), 0, Value::Int(7)},
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Qty(0), Value::Int(10));
}

TEST_F(SstTest, SequentialSstsSeeEachOther) {
  ASSERT_TRUE(sst_->Execute({{"t", Value::Int(0), 1, Value::Int(4)}}).ok());
  ASSERT_TRUE(sst_->Execute({{"t", Value::Int(0), 1, Value::Int(3)}}).ok());
  EXPECT_EQ(Qty(0), Value::Int(3));
  EXPECT_EQ(sst_->counters().executed, 2);
}

TEST_F(SstTest, RecoveryFromWalReproducesEveryRow) {
  ASSERT_TRUE(sst_->Execute({
                     {"t", Value::Int(0), 1, Value::Int(7)},
                     {"t", Value::Int(2), 2, Value::Int(90)},
                 })
                  .ok());
  // Fails on its second cell: the first must vanish from table and log.
  EXPECT_EQ(sst_->Execute({
                     {"t", Value::Int(2), 2, Value::Int(1)},
                     {"t", Value::Int(2), 1, Value::Int(-5)},
                 })
                .code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(sst_->Execute({{"t", Value::Int(1), 2, Value::Int(55)}}).ok());
  ASSERT_TRUE(sst_->Execute({
                     {"t", Value::Int(0), 1, Value::Int(6)},
                     {"t", Value::Int(1), 1, Value::Int(9)},
                 })
                  .ok());
  EXPECT_EQ(sst_->counters().executed, 3);
  EXPECT_EQ(sst_->counters().failed, 1);
  EXPECT_EQ(Rows(db_.get()),
            (std::vector<Row>{
                Row({Value::Int(0), Value::Int(6), Value::Int(100)}),
                Row({Value::Int(1), Value::Int(9), Value::Int(55)}),
                Row({Value::Int(2), Value::Int(10), Value::Int(90)}),
            }));
  ExpectRecoveredMatchesLive();
}

TEST_F(SstTest, TwoCellsOfOneRowLogOneUpdateEach) {
  const size_t before = storage::ScanWal(Log()).records.size();
  ASSERT_TRUE(sst_->Execute({
                     {"t", Value::Int(1), 1, Value::Int(4)},
                     {"t", Value::Int(1), 2, Value::Int(40)},
                 })
                  .ok());
  EXPECT_EQ(Rows(db_.get())[1],
            Row({Value::Int(1), Value::Int(4), Value::Int(40)}));

  // Begin, one after-image per write (the second includes the first), and
  // Commit, all under one transaction id.
  const storage::WalScanResult scan = storage::ScanWal(Log());
  ASSERT_TRUE(scan.status.ok());
  ASSERT_EQ(scan.records.size(), before + 4);
  const storage::WalRecord* r = &scan.records[before];
  EXPECT_EQ(r[0].type, WalRecordType::kBegin);
  EXPECT_EQ(r[1].type, WalRecordType::kUpdate);
  EXPECT_EQ(r[1].row, Row({Value::Int(1), Value::Int(4), Value::Int(100)}));
  EXPECT_EQ(r[2].type, WalRecordType::kUpdate);
  EXPECT_EQ(r[2].row, Row({Value::Int(1), Value::Int(4), Value::Int(40)}));
  EXPECT_EQ(r[3].type, WalRecordType::kCommit);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(r[i].txn_id, r[0].txn_id);
  ExpectRecoveredMatchesLive();
}

TEST_F(SstTest, FailedSstLeavesTableAndLogUnchanged) {
  ASSERT_TRUE(sst_->Execute({{"t", Value::Int(0), 1, Value::Int(8)}}).ok());
  const std::vector<Row> rows_before = Rows(db_.get());
  const std::string log_before = Log();
  EXPECT_EQ(sst_->Execute({
                     {"t", Value::Int(0), 2, Value::Int(1)},
                     {"t", Value::Int(0), 1, Value::Int(2)},
                     {"t", Value::Int(1), 2, Value::Int(-1)},
                 })
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Rows(db_.get()), rows_before);
  EXPECT_EQ(Log(), log_before);
  EXPECT_TRUE(db_->GetTable("t").value()->CheckInvariants().ok());
  ExpectRecoveredMatchesLive();
}

}  // namespace
}  // namespace preserial::gtm
