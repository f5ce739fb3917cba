#include "storage/recovery.h"

#include <memory>

#include <gtest/gtest.h>

#include "storage/database.h"

namespace preserial::storage {
namespace {

Schema CounterSchema() {
  return Schema::Create(
             {
                 ColumnDef{"id", ValueType::kInt64, false},
                 ColumnDef{"qty", ValueType::kInt64, false},
             },
             0)
      .value();
}

TEST(ReplayWalTest, AppliesOnlyCommittedTransactions) {
  MemoryWalStorage storage;
  WalWriter writer(&storage);
  ASSERT_TRUE(writer.LogCreateTable(kSystemTxnId, "t", CounterSchema()).ok());
  // Txn 1 commits.
  ASSERT_TRUE(writer.LogBegin(1).ok());
  ASSERT_TRUE(
      writer.LogInsert(1, "t", Row({Value::Int(1), Value::Int(10)})).ok());
  ASSERT_TRUE(writer.LogCommit(1).ok());
  // Txn 2 aborts.
  ASSERT_TRUE(writer.LogBegin(2).ok());
  ASSERT_TRUE(
      writer.LogInsert(2, "t", Row({Value::Int(2), Value::Int(20)})).ok());
  ASSERT_TRUE(writer.LogAbort(2).ok());
  // Txn 3 never finishes (in flight at crash).
  ASSERT_TRUE(writer.LogBegin(3).ok());
  ASSERT_TRUE(
      writer.LogInsert(3, "t", Row({Value::Int(3), Value::Int(30)})).ok());

  WalScanResult scan = ScanWal(storage.ReadAll().value());
  ASSERT_TRUE(scan.status.ok());
  Catalog catalog;
  Result<RecoveryStats> stats = ReplayWal(scan.records, &catalog);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().txns_committed, 1u);
  EXPECT_EQ(stats.value().txns_discarded, 2u);

  Table* t = catalog.GetTable("t").value();
  EXPECT_EQ(t->row_count(), 1u);
  EXPECT_TRUE(t->GetByKey(Value::Int(1)).ok());
  EXPECT_FALSE(t->GetByKey(Value::Int(2)).ok());
  EXPECT_FALSE(t->GetByKey(Value::Int(3)).ok());
}

TEST(ReplayWalTest, UpdatesAndDeletesReplayInLogOrder) {
  MemoryWalStorage storage;
  WalWriter writer(&storage);
  ASSERT_TRUE(writer.LogCreateTable(kSystemTxnId, "t", CounterSchema()).ok());
  ASSERT_TRUE(writer.LogBegin(1).ok());
  ASSERT_TRUE(
      writer.LogInsert(1, "t", Row({Value::Int(1), Value::Int(10)})).ok());
  ASSERT_TRUE(
      writer.LogInsert(1, "t", Row({Value::Int(2), Value::Int(20)})).ok());
  ASSERT_TRUE(writer
                  .LogUpdate(1, "t", Value::Int(1),
                             Row({Value::Int(1), Value::Int(11)}))
                  .ok());
  ASSERT_TRUE(writer.LogDelete(1, "t", Value::Int(2)).ok());
  ASSERT_TRUE(writer.LogCommit(1).ok());

  Catalog catalog;
  WalScanResult scan = ScanWal(storage.ReadAll().value());
  ASSERT_TRUE(ReplayWal(scan.records, &catalog).ok());
  Table* t = catalog.GetTable("t").value();
  EXPECT_EQ(t->row_count(), 1u);
  EXPECT_EQ(t->GetColumnByKey(Value::Int(1), 1).value(), Value::Int(11));
}

TEST(ReplayWalTest, ConstraintsAreRestored) {
  MemoryWalStorage storage;
  WalWriter writer(&storage);
  ASSERT_TRUE(writer.LogCreateTable(kSystemTxnId, "t", CounterSchema()).ok());
  ASSERT_TRUE(writer
                  .LogAddConstraint(
                      kSystemTxnId, "t",
                      CheckConstraint("nonneg", 1, CompareOp::kGe,
                                      Value::Int(0)))
                  .ok());
  Catalog catalog;
  WalScanResult scan = ScanWal(storage.ReadAll().value());
  ASSERT_TRUE(ReplayWal(scan.records, &catalog).ok());
  Table* t = catalog.GetTable("t").value();
  ASSERT_EQ(t->constraints().size(), 1u);
  EXPECT_EQ(t->Insert(Row({Value::Int(1), Value::Int(-1)})).status().code(),
            StatusCode::kConstraintViolation);
}

class DatabaseRecoveryTest : public ::testing::Test {
 protected:
  // Builds a database over `storage` (not owned), runs `mutate`, and
  // returns the log bytes for a fresh reopen.
  std::string BuildAndCapture(
      const std::function<void(Database&)>& mutate) {
    auto storage = std::make_unique<MemoryWalStorage>();
    MemoryWalStorage* raw = storage.get();
    Database db(std::move(storage));
    EXPECT_TRUE(db.Open().ok());
    mutate(db);
    return raw->ReadAll().value();
  }

  std::unique_ptr<Database> Reopen(const std::string& log,
                                   RecoveryStats* stats = nullptr) {
    auto storage = std::make_unique<MemoryWalStorage>();
    EXPECT_TRUE(storage->Reset(log).ok());
    auto db = std::make_unique<Database>(std::move(storage));
    Result<RecoveryStats> r = db->Open();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (stats != nullptr && r.ok()) *stats = r.value();
    return db;
  }
};

TEST_F(DatabaseRecoveryTest, AutoCommittedDmlSurvivesReopen) {
  const std::string log = BuildAndCapture([](Database& db) {
    ASSERT_TRUE(db.CreateTable("t", CounterSchema()).ok());
    ASSERT_TRUE(db.CreateTable("gone", CounterSchema()).ok());
    ASSERT_TRUE(
        db.InsertRow("t", Row({Value::Int(1), Value::Int(10)})).ok());
    ASSERT_TRUE(db.UpdateRow("t", Value::Int(1),
                             Row({Value::Int(1), Value::Int(99)}))
                    .ok());
    ASSERT_TRUE(
        db.InsertRow("t", Row({Value::Int(2), Value::Int(20)})).ok());
    ASSERT_TRUE(db.DeleteRow("t", Value::Int(2)).ok());
    ASSERT_TRUE(db.DropTable("gone").ok());
  });
  std::unique_ptr<Database> db = Reopen(log);
  EXPECT_FALSE(db->catalog()->HasTable("gone"));
  Table* t = db->GetTable("t").value();
  EXPECT_EQ(t->row_count(), 1u);
  EXPECT_EQ(t->GetColumnByKey(Value::Int(1), 1).value(), Value::Int(99));
  EXPECT_TRUE(t->CheckInvariants().ok());
}

TEST_F(DatabaseRecoveryTest, TxnIdsResumeAboveLog) {
  const std::string log = BuildAndCapture([](Database& db) {
    ASSERT_TRUE(db.CreateTable("t", CounterSchema()).ok());
    ASSERT_TRUE(db.InsertRow("t", Row({Value::Int(1), Value::Int(1)})).ok());
  });
  std::unique_ptr<Database> db = Reopen(log);
  // The auto-commit used txn id 1; the next id must be above it.
  EXPECT_GE(db->NextTxnId(), 2u);
}

TEST_F(DatabaseRecoveryTest, CheckpointCompactsAndPreservesState) {
  auto storage = std::make_unique<MemoryWalStorage>();
  MemoryWalStorage* raw = storage.get();
  Database db(std::move(storage));
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(db.CreateTable("t", CounterSchema()).ok());
  ASSERT_TRUE(db.AddConstraint("t", CheckConstraint("nonneg", 1,
                                                    CompareOp::kGe,
                                                    Value::Int(0)))
                  .ok());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        db.InsertRow("t", Row({Value::Int(i), Value::Int(i)})).ok());
  }
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.UpdateRow("t", Value::Int(i),
                             Row({Value::Int(i), Value::Int(i * 2)}))
                    .ok());
  }
  const size_t before = raw->ReadAll().value().size();
  ASSERT_TRUE(db.Checkpoint().ok());
  const std::string snapshot = raw->ReadAll().value();
  EXPECT_LT(snapshot.size(), before);  // Updates collapsed into inserts.

  RecoveryStats stats;
  std::unique_ptr<Database> reopened = Reopen(snapshot, &stats);
  Table* t = reopened->GetTable("t").value();
  EXPECT_EQ(t->row_count(), 20u);
  EXPECT_EQ(t->GetColumnByKey(Value::Int(7), 1).value(), Value::Int(14));
  EXPECT_EQ(t->constraints().size(), 1u);
}

TEST_F(DatabaseRecoveryTest, TornTailTrimmedOnOpen) {
  auto storage = std::make_unique<MemoryWalStorage>();
  MemoryWalStorage* raw = storage.get();
  Database db(std::move(storage));
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(db.CreateTable("t", CounterSchema()).ok());
  ASSERT_TRUE(db.InsertRow("t", Row({Value::Int(1), Value::Int(1)})).ok());
  std::string log = raw->ReadAll().value();
  log.resize(log.size() - 2);  // Torn final record.

  RecoveryStats stats;
  std::unique_ptr<Database> reopened = Reopen(log, &stats);
  // The table exists; the torn transaction's effects are gone.
  EXPECT_TRUE(reopened->GetTable("t").ok());
}

TEST_F(DatabaseRecoveryTest, MidLogCorruptionFailsOpenLoudly) {
  const std::string log = BuildAndCapture([](Database& db) {
    ASSERT_TRUE(db.CreateTable("t", CounterSchema()).ok());
    ASSERT_TRUE(db.InsertRow("t", Row({Value::Int(1), Value::Int(1)})).ok());
    ASSERT_TRUE(db.InsertRow("t", Row({Value::Int(2), Value::Int(2)})).ok());
  });
  // Flip a payload byte of the first record: a bad CRC in the log body is
  // real corruption, not a torn tail, and silently dropping the suffix
  // would resurrect deleted data. Open must refuse.
  std::string corrupted = log;
  corrupted[9] = static_cast<char>(corrupted[9] ^ 0xff);
  auto storage = std::make_unique<MemoryWalStorage>();
  ASSERT_TRUE(storage->Reset(corrupted).ok());
  Database db(std::move(storage));
  Result<RecoveryStats> opened = db.Open();
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

TEST_F(DatabaseRecoveryTest, TornTailAfterCheckpointKeepsSnapshot) {
  auto storage = std::make_unique<MemoryWalStorage>();
  MemoryWalStorage* raw = storage.get();
  Database db(std::move(storage));
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(db.CreateTable("t", CounterSchema()).ok());
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.InsertRow("t", Row({Value::Int(i), Value::Int(i)})).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.InsertRow("t", Row({Value::Int(5), Value::Int(5)})).ok());
  ASSERT_TRUE(db.InsertRow("t", Row({Value::Int(6), Value::Int(6)})).ok());
  std::string log = raw->ReadAll().value();
  log.resize(log.size() - 2);  // Crash mid-write of the last insert.

  // The torn suffix is trimmed; everything up to it — the checkpoint
  // snapshot plus the first post-checkpoint insert — survives.
  std::unique_ptr<Database> reopened = Reopen(log);
  Table* t = reopened->GetTable("t").value();
  EXPECT_EQ(t->row_count(), 6u);
  EXPECT_TRUE(t->GetColumnByKey(Value::Int(5), 1).ok());
  EXPECT_FALSE(t->GetColumnByKey(Value::Int(6), 1).ok());
  EXPECT_TRUE(t->CheckInvariants().ok());
}

TEST_F(DatabaseRecoveryTest, FreshDatabaseOpensEmpty) {
  Database db;
  Result<RecoveryStats> stats = db.Open();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_scanned, 0u);
}

}  // namespace
}  // namespace preserial::storage
