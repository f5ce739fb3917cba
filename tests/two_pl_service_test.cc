#include "txn/two_pl_service.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/database.h"
#include "test_util.h"

namespace preserial::txn {
namespace {

using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

class TwoPlServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<storage::Database>();
    ASSERT_TRUE(db_->Open().ok());
    Schema schema = Schema::Create(
                        {
                            ColumnDef{"id", ValueType::kInt64, false},
                            ColumnDef{"qty", ValueType::kInt64, false},
                        },
                        0)
                        .value();
    ASSERT_TRUE(db_->CreateTable("t", std::move(schema)).ok());
    ASSERT_TRUE(
        db_->InsertRow("t", Row({Value::Int(0), Value::Int(1000)})).ok());
    service_ = std::make_unique<TwoPlService>(db_.get());
  }

  Value Qty() {
    return db_->GetTable("t").value()->GetColumnByKey(Value::Int(0), 1)
        .value();
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<TwoPlService> service_;
};

TEST_F(TwoPlServiceTest, SingleThreadedRoundTrip) {
  const TxnId t = service_->Begin();
  Result<Value> v = service_->ReadForUpdate(t, "t", Value::Int(0), 1);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(
      service_->Write(t, "t", Value::Int(0), 1, Value::Int(999)).ok());
  ASSERT_TRUE(service_->Commit(t).ok());
  EXPECT_EQ(Qty(), Value::Int(999));
}

TEST_F(TwoPlServiceTest, BlockedWriterResumesAfterCommit) {
  const TxnId holder = service_->Begin();
  ASSERT_TRUE(
      service_->Write(holder, "t", Value::Int(0), 1, Value::Int(5)).ok());
  std::atomic<bool> done{false};
  const int64_t waits_before = service_->counters().lock_waits;
  std::thread waiter([this, &done] {
    const TxnId t = service_->Begin();
    EXPECT_TRUE(
        service_->Write(t, "t", Value::Int(0), 1, Value::Int(7), 30.0).ok());
    EXPECT_TRUE(service_->Commit(t).ok());
    done.store(true);
  });
  // Wait until the writer has actually queued behind the holder's lock.
  ASSERT_TRUE(testutil::WaitUntil([&] {
    return service_->counters().lock_waits > waits_before;
  }));
  EXPECT_FALSE(done.load());
  ASSERT_TRUE(service_->Commit(holder).ok());
  waiter.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(Qty(), Value::Int(7));
}

TEST_F(TwoPlServiceTest, TimeoutAbortsWaiter) {
  const TxnId holder = service_->Begin();
  ASSERT_TRUE(
      service_->Write(holder, "t", Value::Int(0), 1, Value::Int(5)).ok());
  const TxnId waiter = service_->Begin();
  const Status s =
      service_->Write(waiter, "t", Value::Int(0), 1, Value::Int(7),
                      /*timeout=*/0.05);
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
  ASSERT_TRUE(service_->Commit(holder).ok());
  EXPECT_EQ(Qty(), Value::Int(5));
}

TEST_F(TwoPlServiceTest, DeadlockVictimAutoAborted) {
  ASSERT_TRUE(
      db_->InsertRow("t", Row({Value::Int(1), Value::Int(1000)})).ok());
  const TxnId a = service_->Begin();
  const TxnId b = service_->Begin();
  ASSERT_TRUE(service_->Write(a, "t", Value::Int(0), 1, Value::Int(1)).ok());
  ASSERT_TRUE(service_->Write(b, "t", Value::Int(1), 1, Value::Int(2)).ok());
  const int64_t waits_before = service_->counters().lock_waits;
  std::thread a_thread([this, a] {
    // Blocks on row 1 until b dies, then succeeds.
    EXPECT_TRUE(
        service_->Write(a, "t", Value::Int(1), 1, Value::Int(3), 30.0).ok());
    EXPECT_TRUE(service_->Commit(a).ok());
  });
  // a must be queued on row 1 before b's request can close the cycle.
  ASSERT_TRUE(testutil::WaitUntil([&] {
    return service_->counters().lock_waits > waits_before;
  }));
  // b closing the cycle is refused and auto-aborted.
  const Status s =
      service_->Write(b, "t", Value::Int(0), 1, Value::Int(4), 30.0);
  EXPECT_EQ(s.code(), StatusCode::kDeadlock);
  a_thread.join();
  EXPECT_EQ(Qty(), Value::Int(1));
}

TEST_F(TwoPlServiceTest, ManySerializedIncrements) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::vector<std::thread> threads;
  std::atomic<int> committed{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([this, &committed] {
      for (int j = 0; j < kPerThread; ++j) {
        // Classic read-modify-write under U locks; retry on any failure.
        while (true) {
          const TxnId t = service_->Begin();
          Result<Value> v =
              service_->ReadForUpdate(t, "t", Value::Int(0), 1, 10.0);
          if (!v.ok()) continue;
          const Value next =
              Value::Sub(v.value(), Value::Int(1)).value();
          if (!service_->Write(t, "t", Value::Int(0), 1, next, 10.0).ok()) {
            (void)service_->Abort(t);
            continue;
          }
          if (service_->Commit(t).ok()) {
            committed.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(committed.load(), kThreads * kPerThread);
  // Strict serialization: every decrement counted exactly once.
  EXPECT_EQ(Qty(), Value::Int(1000 - kThreads * kPerThread));
}

TEST_F(TwoPlServiceTest, ReadersRunConcurrently) {
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> reads{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([this, &reads] {
      const TxnId t = service_->Begin();
      Result<Value> v = service_->Read(t, "t", Value::Int(0), 1, 5.0);
      if (v.ok() && v.value() == Value::Int(1000)) reads.fetch_add(1);
      (void)service_->Commit(t);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(reads.load(), kThreads);
}

}  // namespace
}  // namespace preserial::txn
