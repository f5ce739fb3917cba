// The middleware trace log: ring-buffer mechanics and the event stream the
// Gtm emits for each of the paper's transitions.

#include <memory>

#include <gtest/gtest.h>

#include "gtm/gtm.h"
#include "storage/database.h"

namespace preserial::gtm {
namespace {

using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

TEST(TraceLogTest, DisabledByDefaultButStillCounts) {
  TraceLog log;
  EXPECT_FALSE(log.enabled());
  log.Record(1.0, TraceEventKind::kBegin, 1);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 1);
}

TEST(TraceLogTest, RecordsInOrder) {
  TraceLog log;
  log.Enable(10);
  for (TxnId t = 1; t <= 3; ++t) {
    log.Record(static_cast<double>(t), TraceEventKind::kBegin, t);
  }
  std::vector<TraceEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].txn, 1u);
  EXPECT_EQ(events[2].txn, 3u);
}

TEST(TraceLogTest, RingDropsOldestWhenFull) {
  TraceLog log;
  log.Enable(3);
  for (TxnId t = 1; t <= 5; ++t) {
    log.Record(static_cast<double>(t), TraceEventKind::kBegin, t);
  }
  std::vector<TraceEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].txn, 3u);
  EXPECT_EQ(events[2].txn, 5u);
  EXPECT_EQ(log.total_recorded(), 5);
}

TEST(TraceLogTest, ForTxnFilters) {
  TraceLog log;
  log.Enable(10);
  log.Record(1, TraceEventKind::kBegin, 7);
  log.Record(2, TraceEventKind::kBegin, 8);
  log.Record(3, TraceEventKind::kCommit, 7);
  std::vector<TraceEvent> events = log.ForTxn(7);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, TraceEventKind::kCommit);
}

std::vector<TxnId> TxnsOf(const std::vector<TraceEvent>& events) {
  std::vector<TxnId> txns;
  for (const TraceEvent& e : events) txns.push_back(e.txn);
  return txns;
}

TEST(TraceLogTest, ClearKeepsCapacity) {
  TraceLog log;
  log.Enable(4);
  log.Record(1, TraceEventKind::kBegin, 1);
  log.Record(2, TraceEventKind::kBegin, 2);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  // A partial fill, a Clear and a refill: no cleared event comes back.
  log.Record(3, TraceEventKind::kBegin, 3);
  EXPECT_EQ(TxnsOf(log.Snapshot()), (std::vector<TxnId>{3}));

  // A wrap after a Clear keeps exactly the newest `capacity` events, oldest
  // first.
  TraceLog wrapped;
  wrapped.Enable(4);
  wrapped.Record(1, TraceEventKind::kBegin, 1);
  wrapped.Clear();
  for (TxnId t = 10; t < 15; ++t) wrapped.Record(t, TraceEventKind::kBegin, t);
  EXPECT_EQ(wrapped.size(), 4u);
  EXPECT_EQ(TxnsOf(wrapped.Snapshot()), (std::vector<TxnId>{11, 12, 13, 14}));
}

class GtmTraceTest : public ::testing::Test {
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
    ASSERT_TRUE(db_->CreateTable("obj", std::move(schema)).ok());
    ASSERT_TRUE(
        db_->InsertRow("obj", Row({Value::Int(0), Value::Int(100)})).ok());
    gtm_ = std::make_unique<Gtm>(db_.get(), &clock_);
    gtm_->trace()->Enable(256);
    ASSERT_TRUE(gtm_->RegisterObject("X", "obj", Value::Int(0), {1}).ok());
  }

  std::vector<TraceEventKind> KindsFor(TxnId t) {
    std::vector<TraceEventKind> kinds;
    for (const TraceEvent& e : gtm_->trace()->ForTxn(t)) {
      kinds.push_back(e.kind);
    }
    return kinds;
  }

  std::unique_ptr<storage::Database> db_;
  ManualClock clock_;
  std::unique_ptr<Gtm> gtm_;
};

TEST_F(GtmTraceTest, HappyPathLifecycle) {
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(t).ok());
  // The structured apply (the checker's replay feed) precedes its grant.
  EXPECT_EQ(KindsFor(t),
            (std::vector<TraceEventKind>{TraceEventKind::kBegin,
                                         TraceEventKind::kApply,
                                         TraceEventKind::kGrant,
                                         TraceEventKind::kCommit}));
}

TEST_F(GtmTraceTest, WaitGrantAndSharedAnnotations) {
  const TxnId a = gtm_->Begin();
  const TxnId b = gtm_->Begin();
  const TxnId c = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(1))).ok());
  EXPECT_EQ(gtm_->Invoke(c, "X", 0, Operation::Assign(Value::Int(5))).code(),
            StatusCode::kWaiting);
  ASSERT_TRUE(gtm_->RequestCommit(a).ok());
  ASSERT_TRUE(gtm_->RequestCommit(b).ok());
  // b's grant was shared; c waited, then was granted from the queue.
  std::vector<TraceEvent> b_events = gtm_->trace()->ForTxn(b);
  ASSERT_GE(b_events.size(), 3u);
  ASSERT_EQ(b_events[2].kind, TraceEventKind::kGrant);
  EXPECT_NE(b_events[2].detail.find("[shared]"), std::string::npos);
  EXPECT_EQ(KindsFor(c),
            (std::vector<TraceEventKind>{TraceEventKind::kBegin,
                                         TraceEventKind::kWait,
                                         TraceEventKind::kApply,
                                         TraceEventKind::kGrant}));
  std::vector<TraceEvent> c_events = gtm_->trace()->ForTxn(c);
  EXPECT_NE(c_events[3].detail.find("[from queue]"), std::string::npos);
}

TEST_F(GtmTraceTest, SleepAwakeAbortKinds) {
  const TxnId sleeper = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Advance(1.0);
  ASSERT_TRUE(gtm_->Sleep(sleeper).ok());
  const TxnId admin = gtm_->Begin();
  clock_.Advance(1.0);
  ASSERT_TRUE(
      gtm_->Invoke(admin, "X", 0, Operation::Assign(Value::Int(9))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(admin).ok());
  clock_.Advance(1.0);
  EXPECT_EQ(gtm_->Awake(sleeper).code(), StatusCode::kAborted);
  EXPECT_EQ(KindsFor(sleeper),
            (std::vector<TraceEventKind>{TraceEventKind::kBegin,
                                         TraceEventKind::kApply,
                                         TraceEventKind::kGrant,
                                         TraceEventKind::kSleep,
                                         TraceEventKind::kAwakeAbort}));
}

TEST_F(GtmTraceTest, SuccessfulAwakeTraced) {
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Sleep(t).ok());
  ASSERT_TRUE(gtm_->Awake(t).ok());
  EXPECT_EQ(KindsFor(t),
            (std::vector<TraceEventKind>{TraceEventKind::kBegin,
                                         TraceEventKind::kApply,
                                         TraceEventKind::kGrant,
                                         TraceEventKind::kSleep,
                                         TraceEventKind::kAwake}));
}

TEST_F(GtmTraceTest, DumpRendersEvents) {
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  const std::string dump = gtm_->trace()->Dump();
  EXPECT_NE(dump.find("BEGIN"), std::string::npos);
  EXPECT_NE(dump.find("GRANT"), std::string::npos);
  EXPECT_NE(dump.find("sub(1)"), std::string::npos);
  EXPECT_NE(dump.find("X"), std::string::npos);
}

}  // namespace
}  // namespace preserial::gtm
