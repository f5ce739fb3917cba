#include "txn/txn_manager.h"

#include <memory>

#include <gtest/gtest.h>

#include "storage/database.h"

namespace preserial::txn {
namespace {

using storage::CheckConstraint;
using storage::ColumnDef;
using storage::CompareOp;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

class TwoPlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto wal = std::make_unique<storage::MemoryWalStorage>();
    wal_ = wal.get();
    db_ = std::make_unique<storage::Database>(std::move(wal));
    ASSERT_TRUE(db_->Open().ok());
    Schema schema = Schema::Create(
                        {
                            ColumnDef{"id", ValueType::kInt64, false},
                            ColumnDef{"qty", ValueType::kInt64, false},
                        },
                        0)
                        .value();
    ASSERT_TRUE(db_->CreateTable("t", std::move(schema)).ok());
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          db_->InsertRow("t", Row({Value::Int(i), Value::Int(100)})).ok());
    }
    engine_ = std::make_unique<TwoPhaseLockingEngine>(db_.get());
  }

  Value Qty(int64_t id) {
    return db_->GetTable("t").value()->GetColumnByKey(Value::Int(id), 1)
        .value();
  }

  std::unique_ptr<storage::Database> db_;
  storage::MemoryWalStorage* wal_ = nullptr;  // Owned by db_.
  std::unique_ptr<TwoPhaseLockingEngine> engine_;
};

TEST_F(TwoPlEngineTest, ReadWriteCommit) {
  const TxnId t = engine_->Begin();
  EXPECT_EQ(engine_->PhaseOf(t), TxnPhase::kActive);
  Result<Value> v = engine_->Read(t, "t", Value::Int(0), 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), Value::Int(100));
  ASSERT_TRUE(engine_->Write(t, "t", Value::Int(0), 1, Value::Int(99)).ok());
  ASSERT_TRUE(engine_->Commit(t).ok());
  EXPECT_EQ(engine_->PhaseOf(t), TxnPhase::kCommitted);
  EXPECT_EQ(Qty(0), Value::Int(99));
}

TEST_F(TwoPlEngineTest, AbortUndoesEverything) {
  const TxnId t = engine_->Begin();
  ASSERT_TRUE(engine_->Write(t, "t", Value::Int(0), 1, Value::Int(1)).ok());
  ASSERT_TRUE(engine_->Write(t, "t", Value::Int(1), 1, Value::Int(2)).ok());
  ASSERT_TRUE(engine_->Abort(t).ok());
  EXPECT_EQ(engine_->PhaseOf(t), TxnPhase::kAborted);
  EXPECT_EQ(Qty(0), Value::Int(100));
  EXPECT_EQ(Qty(1), Value::Int(100));
  EXPECT_TRUE(db_->GetTable("t").value()->CheckInvariants().ok());
}

TEST_F(TwoPlEngineTest, MultipleWritesToSameRowUndoInOrder) {
  const TxnId t = engine_->Begin();
  ASSERT_TRUE(engine_->Write(t, "t", Value::Int(0), 1, Value::Int(1)).ok());
  ASSERT_TRUE(engine_->Write(t, "t", Value::Int(0), 1, Value::Int(2)).ok());
  ASSERT_TRUE(engine_->Write(t, "t", Value::Int(0), 1, Value::Int(3)).ok());
  ASSERT_TRUE(engine_->Abort(t).ok());
  EXPECT_EQ(Qty(0), Value::Int(100));
}

TEST_F(TwoPlEngineTest, ConflictingWriterWaitsUntilCommit) {
  const TxnId a = engine_->Begin();
  const TxnId b = engine_->Begin();
  ASSERT_TRUE(engine_->Write(a, "t", Value::Int(0), 1, Value::Int(1)).ok());
  Status s = engine_->Write(b, "t", Value::Int(0), 1, Value::Int(2));
  EXPECT_EQ(s.code(), StatusCode::kWaiting);
  EXPECT_EQ(engine_->PhaseOf(b), TxnPhase::kWaiting);
  EXPECT_TRUE(engine_->TakeRunnable().empty());
  ASSERT_TRUE(engine_->Commit(a).ok());
  std::vector<TxnId> runnable = engine_->TakeRunnable();
  ASSERT_EQ(runnable.size(), 1u);
  EXPECT_EQ(runnable[0], b);
  EXPECT_EQ(engine_->PhaseOf(b), TxnPhase::kActive);
  // Retrying the blocked operation now succeeds.
  ASSERT_TRUE(engine_->Write(b, "t", Value::Int(0), 1, Value::Int(2)).ok());
  ASSERT_TRUE(engine_->Commit(b).ok());
  EXPECT_EQ(Qty(0), Value::Int(2));
}

TEST_F(TwoPlEngineTest, ReadersShare) {
  const TxnId a = engine_->Begin();
  const TxnId b = engine_->Begin();
  EXPECT_TRUE(engine_->Read(a, "t", Value::Int(0), 1).ok());
  EXPECT_TRUE(engine_->Read(b, "t", Value::Int(0), 1).ok());
  EXPECT_TRUE(engine_->Commit(a).ok());
  EXPECT_TRUE(engine_->Commit(b).ok());
}

TEST_F(TwoPlEngineTest, UpgradeDeadlockDetectedWithoutUpdateLocks) {
  // Reproduce the paper's Sec. II deadlock: two transactions read the same
  // counter with plain S locks, then both try to write it.
  TwoPhaseLockingOptions options;
  options.use_update_locks = false;
  TwoPhaseLockingEngine engine(db_.get(), nullptr, options);
  const TxnId a = engine.Begin();
  const TxnId b = engine.Begin();
  ASSERT_TRUE(engine.ReadForUpdate(a, "t", Value::Int(0), 1).ok());
  ASSERT_TRUE(engine.ReadForUpdate(b, "t", Value::Int(0), 1).ok());
  EXPECT_EQ(engine.Write(a, "t", Value::Int(0), 1, Value::Int(1)).code(),
            StatusCode::kWaiting);
  EXPECT_EQ(engine.Write(b, "t", Value::Int(0), 1, Value::Int(2)).code(),
            StatusCode::kDeadlock);
  ASSERT_TRUE(engine.Abort(b).ok());
  ASSERT_EQ(engine.TakeRunnable().size(), 1u);
  ASSERT_TRUE(engine.Write(a, "t", Value::Int(0), 1, Value::Int(1)).ok());
  ASSERT_TRUE(engine.Commit(a).ok());
  EXPECT_EQ(engine.counters().deadlocks, 1);
}

TEST_F(TwoPlEngineTest, UpdateLocksSerializeReadersWithIntent) {
  const TxnId a = engine_->Begin();
  const TxnId b = engine_->Begin();
  ASSERT_TRUE(engine_->ReadForUpdate(a, "t", Value::Int(0), 1).ok());
  // With U locks the second intent reader queues instead of deadlocking.
  EXPECT_EQ(engine_->ReadForUpdate(b, "t", Value::Int(0), 1).status().code(),
            StatusCode::kWaiting);
  ASSERT_TRUE(engine_->Write(a, "t", Value::Int(0), 1, Value::Int(50)).ok());
  ASSERT_TRUE(engine_->Commit(a).ok());
  ASSERT_EQ(engine_->TakeRunnable().size(), 1u);
  Result<Value> v = engine_->ReadForUpdate(b, "t", Value::Int(0), 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), Value::Int(50));  // Sees a's committed write.
}

TEST_F(TwoPlEngineTest, WritePrimaryKeyColumnRejected) {
  const TxnId t = engine_->Begin();
  EXPECT_EQ(engine_->Write(t, "t", Value::Int(0), 0, Value::Int(9)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TwoPlEngineTest, ConstraintViolationLeavesTxnAlive) {
  ASSERT_TRUE(db_->AddConstraint("t", CheckConstraint("nonneg", 1,
                                                      CompareOp::kGe,
                                                      Value::Int(0)))
                  .ok());
  const TxnId t = engine_->Begin();
  EXPECT_EQ(engine_->Write(t, "t", Value::Int(0), 1, Value::Int(-1)).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(engine_->PhaseOf(t), TxnPhase::kActive);
  // The transaction can continue with a legal write.
  ASSERT_TRUE(engine_->Write(t, "t", Value::Int(0), 1, Value::Int(0)).ok());
  ASSERT_TRUE(engine_->Commit(t).ok());
}

TEST_F(TwoPlEngineTest, OperationsOnTerminalTxnRejected) {
  const TxnId t = engine_->Begin();
  ASSERT_TRUE(engine_->Commit(t).ok());
  EXPECT_EQ(engine_->Read(t, "t", Value::Int(0), 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->Commit(t).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->Abort(t).code(), StatusCode::kFailedPrecondition);
}

TEST_F(TwoPlEngineTest, AbortWhileWaitingCancelsRequest) {
  const TxnId a = engine_->Begin();
  const TxnId b = engine_->Begin();
  ASSERT_TRUE(engine_->Write(a, "t", Value::Int(0), 1, Value::Int(1)).ok());
  EXPECT_EQ(engine_->Write(b, "t", Value::Int(0), 1, Value::Int(2)).code(),
            StatusCode::kWaiting);
  ASSERT_TRUE(engine_->Abort(b).ok());
  // a commits; nobody is waiting anymore.
  ASSERT_TRUE(engine_->Commit(a).ok());
  EXPECT_TRUE(engine_->TakeRunnable().empty());
  EXPECT_EQ(Qty(0), Value::Int(1));
}

TEST_F(TwoPlEngineTest, StrictnessHoldsLocksUntilCommit) {
  const TxnId a = engine_->Begin();
  ASSERT_TRUE(engine_->Write(a, "t", Value::Int(0), 1, Value::Int(1)).ok());
  // Even after the write completes, a reader must wait (no early release).
  const TxnId b = engine_->Begin();
  EXPECT_EQ(engine_->Read(b, "t", Value::Int(0), 1).status().code(),
            StatusCode::kWaiting);
  ASSERT_TRUE(engine_->Commit(a).ok());
  ASSERT_EQ(engine_->TakeRunnable().size(), 1u);
  EXPECT_EQ(engine_->Read(b, "t", Value::Int(0), 1).value(), Value::Int(1));
}

TEST_F(TwoPlEngineTest, CountersTrackOutcomes) {
  const TxnId a = engine_->Begin();
  ASSERT_TRUE(engine_->Commit(a).ok());
  const TxnId b = engine_->Begin();
  ASSERT_TRUE(engine_->Abort(b).ok());
  EXPECT_EQ(engine_->counters().begun, 2);
  EXPECT_EQ(engine_->counters().committed, 1);
  EXPECT_EQ(engine_->counters().aborted, 1);
}

TEST_F(TwoPlEngineTest, CommittedStateSurvivesCrashRecovery) {
  const TxnId a = engine_->Begin();
  ASSERT_TRUE(engine_->Write(a, "t", Value::Int(0), 1, Value::Int(7)).ok());
  ASSERT_TRUE(engine_->Commit(a).ok());
  const TxnId b = engine_->Begin();
  ASSERT_TRUE(engine_->Write(b, "t", Value::Int(1), 1, Value::Int(8)).ok());
  // b never commits: crash here. Rebuild a database from the log bytes.
  const std::string log = wal_->ReadAll().value();
  auto wal_copy = std::make_unique<storage::MemoryWalStorage>();
  ASSERT_TRUE(wal_copy->Reset(log).ok());
  storage::Database recovered(std::move(wal_copy));
  ASSERT_TRUE(recovered.Open().ok());
  storage::Table* t = recovered.GetTable("t").value();
  EXPECT_EQ(t->GetColumnByKey(Value::Int(0), 1).value(), Value::Int(7));
  // The in-flight write of b is gone after recovery.
  EXPECT_EQ(t->GetColumnByKey(Value::Int(1), 1).value(), Value::Int(100));
}

}  // namespace
}  // namespace preserial::txn
