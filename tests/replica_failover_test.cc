// Failover: killing the primary and promoting a backup must preserve the
// whole transaction population — Sleeping transactions with their
// A_t_sleep timestamps (the paper's Algorithm 9 awake-check keeps giving
// the same answers on the new primary), prepared 2PC branches, reply
// caches (*Once exactly-once across the promotion) — and must fence the
// old epoch so a stale primary's records bounce.

#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "gtm/trace.h"
#include "replica/replica.h"
#include "storage/wal.h"

namespace preserial::replica {
namespace {

using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

// Every test's starting state: table "obj" with one row of qty 100, bound
// to object "X".
void Bootstrap(ReplicatedGtm* group) {
  Schema schema = Schema::Create(
                      {
                          ColumnDef{"id", ValueType::kInt64, false},
                          ColumnDef{"qty", ValueType::kInt64, false},
                      },
                      0)
                      .value();
  ASSERT_TRUE(group->CreateTable("obj", std::move(schema)).ok());
  ASSERT_TRUE(
      group->InsertRow("obj", Row({Value::Int(0), Value::Int(100)})).ok());
  ASSERT_TRUE(group->RegisterObject("X", "obj", Value::Int(0), {1}).ok());
}

class ReplicaFailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(0.0);
    ReplicaOptions opts;
    opts.num_backups = 2;
    group_ = std::make_unique<ReplicatedGtm>(&clock_, gtm::GtmOptions{}, opts,
                                             &ship_rng_);
    Bootstrap(group_.get());
  }

  Value PrimaryQty() {
    return group_->primary_db()
        ->GetTable("obj")
        .value()
        ->GetColumnByKey(Value::Int(0), 1)
        .value();
  }

  PromotionReport KillAndPromote() {
    group_->KillPrimary();
    Result<PromotionReport> rep = group_->Promote();
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
    return rep.value();
  }

  ManualClock clock_;
  Rng ship_rng_{0x5eedULL};
  std::unique_ptr<ReplicatedGtm> group_;
};

TEST_F(ReplicaFailoverTest, PromoteRefusesWhilePrimaryAlive) {
  EXPECT_EQ(group_->Promote().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ReplicaFailoverTest, DeadPrimaryAnswersUnavailableUntilPromotion) {
  const TxnId t = group_->Begin();
  ASSERT_TRUE(group_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  group_->KillPrimary();
  // The outage window: every endpoint call is a void, not an error reply.
  EXPECT_EQ(group_->Begin(), kInvalidTxnId);
  EXPECT_EQ(group_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(group_->RequestCommit(t).code(), StatusCode::kUnavailable);
  EXPECT_EQ(group_->StateOf(t).status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(group_->TakeEvents().empty());

  Result<PromotionReport> rep = group_->Promote();
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value().new_epoch, 2u);
  EXPECT_EQ(group_->epoch(), 2u);
  EXPECT_NE(group_->primary_index(), 0u);
  // The in-flight transaction survived with its virtual work intact.
  EXPECT_EQ(group_->StateOf(t).value(), gtm::TxnState::kActive);
  ASSERT_TRUE(group_->RequestCommit(t).ok());
  EXPECT_EQ(PrimaryQty(), Value::Int(99));
  // Fresh transactions run on the promoted primary.
  const TxnId t2 = group_->Begin();
  ASSERT_NE(t2, kInvalidTxnId);
  ASSERT_TRUE(group_->Invoke(t2, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(group_->RequestCommit(t2).ok());
  EXPECT_EQ(PrimaryQty(), Value::Int(98));
  EXPECT_EQ(
      group_->primary_gtm()->metrics().counters().failovers_total, 1);
}

TEST_F(ReplicaFailoverTest, EpochFencesStalePrimaryRecords) {
  const TxnId t = group_->Begin();
  ASSERT_TRUE(group_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  KillAndPromote();
  ReplicaNode* promoted = group_->node(group_->primary_index());
  // A record stamped by the fenced epoch — as if the dead primary came
  // back and kept shipping — is rejected, not applied.
  ReplicaRecord stale;
  stale.lsn = promoted->last_applied() + 1;
  stale.epoch = 1;  // Pre-promotion epoch.
  stale.kind = ReplicaOpKind::kBegin;
  stale.txn = 999;
  std::string payload;
  stale.EncodeTo(&payload);
  std::string frame;
  storage::FramePayload(payload, &frame);
  EXPECT_EQ(promoted->Apply(frame).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(promoted->fenced_rejections(), 1);
  EXPECT_EQ(promoted->last_applied() + 1, stale.lsn);  // Nothing applied.
}

TEST_F(ReplicaFailoverTest, SleepingTransactionsSurviveWithTimestamps) {
  clock_.Set(5.0);
  const TxnId sleeper = group_->Begin();
  ASSERT_TRUE(
      group_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Set(7.5);
  ASSERT_TRUE(group_->Sleep(sleeper).ok());
  clock_.Set(9.0);
  const PromotionReport rep = KillAndPromote();
  EXPECT_EQ(rep.sleeping_at_failure, 1);
  EXPECT_EQ(rep.sleeping_preserved, 1);
  EXPECT_EQ(rep.sleeping_lost, 0);
  EXPECT_EQ(group_->StateOf(sleeper).value(), gtm::TxnState::kSleeping);
  // A_t_sleep replayed bit-exact: the promoted node pinned its replay
  // clock to the logged Sleep timestamp.
  EXPECT_DOUBLE_EQ(
      group_->primary_gtm()->GetTxn(sleeper)->sleep_since(), 7.5);
}

TEST_F(ReplicaFailoverTest, Algorithm9StaysCorrectAfterFailover) {
  // Two sleepers park before the crash.
  const TxnId doomed = group_->Begin();
  const TxnId survivor = group_->Begin();
  ASSERT_TRUE(
      group_->Invoke(doomed, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(
      group_->Invoke(survivor, "X", 0, Operation::Sub(Value::Int(2))).ok());
  clock_.Set(1.0);
  ASSERT_TRUE(group_->Sleep(doomed).ok());
  ASSERT_TRUE(group_->Sleep(survivor).ok());
  clock_.Set(2.0);
  KillAndPromote();
  // On the NEW primary: an incompatible assignment commits while both
  // still sleep...
  const TxnId admin = group_->Begin();
  ASSERT_TRUE(
      group_->Invoke(admin, "X", 0, Operation::Assign(Value::Int(50))).ok());
  ASSERT_TRUE(group_->RequestCommit(admin).ok());
  clock_.Set(3.0);
  // ...so the paper's awake-check (X_tc vs A_t_sleep, both replayed state)
  // aborts the sleepers exactly as an unfailed primary would have.
  EXPECT_EQ(group_->Awake(doomed).code(), StatusCode::kAborted);
  EXPECT_EQ(group_->StateOf(doomed).value(), gtm::TxnState::kAborted);
  EXPECT_EQ(group_->Awake(survivor).code(), StatusCode::kAborted);
  EXPECT_EQ(PrimaryQty(), Value::Int(50));
}

TEST_F(ReplicaFailoverTest, Algorithm9CompatibleCommitStillAwakes) {
  const TxnId sleeper = group_->Begin();
  ASSERT_TRUE(
      group_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Set(1.0);
  ASSERT_TRUE(group_->Sleep(sleeper).ok());
  KillAndPromote();
  // Only compatible subtractions commit during the sleep.
  const TxnId other = group_->Begin();
  clock_.Set(2.0);
  ASSERT_TRUE(
      group_->Invoke(other, "X", 0, Operation::Sub(Value::Int(5))).ok());
  ASSERT_TRUE(group_->RequestCommit(other).ok());
  clock_.Set(3.0);
  ASSERT_TRUE(group_->Awake(sleeper).ok());
  ASSERT_TRUE(group_->RequestCommit(sleeper).ok());
  EXPECT_EQ(PrimaryQty(), Value::Int(94));
}

TEST_F(ReplicaFailoverTest, PreparedBranchSurvivesMidTwoPcKill) {
  const TxnId branch = group_->Begin();
  ASSERT_TRUE(
      group_->Invoke(branch, "X", 0, Operation::Sub(Value::Int(10))).ok());
  ASSERT_TRUE(group_->Prepare(branch).ok());
  // Coordinator decided commit, but the primary died before hearing it.
  KillAndPromote();
  EXPECT_TRUE(group_->primary_gtm()->IsPrepared(branch));
  ASSERT_TRUE(group_->CommitPrepared(branch).ok());
  EXPECT_EQ(group_->StateOf(branch).value(), gtm::TxnState::kCommitted);
  EXPECT_EQ(PrimaryQty(), Value::Int(90));
}

TEST_F(ReplicaFailoverTest, OnceRequestsStayExactlyOnceAcrossPromotion) {
  const TxnId t = group_->Begin();
  ASSERT_TRUE(
      group_->InvokeOnce(t, 1, "X", 0, Operation::Sub(Value::Int(1))).ok());
  KillAndPromote();
  // The client never saw the reply (it died with the primary's channel)
  // and redelivers: the replayed reply cache suppresses the duplicate.
  ASSERT_TRUE(
      group_->InvokeOnce(t, 1, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(group_->CommitOnce(t, 2).ok());
  ASSERT_TRUE(group_->CommitOnce(t, 2).ok());
  EXPECT_EQ(PrimaryQty(), Value::Int(99));  // Applied exactly once.
  EXPECT_GE(
      group_->primary_gtm()->metrics().counters().duplicates_suppressed, 2);
}

TEST_F(ReplicaFailoverTest, PromotionSynthesizesGrantEventsForActiveTxns) {
  const TxnId t = group_->Begin();
  ASSERT_TRUE(group_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  (void)group_->TakeEvents();
  group_->node(group_->primary_index())->gtm()->trace()->Enable(64);
  const PromotionReport rep = [&] {
    group_->KillPrimary();
    // Trace the promotion on the winner (deterministic: highest LSN wins,
    // ties at the lowest index — but all backups are equal here, so just
    // enable tracing on both).
    for (size_t i = 1; i < group_->num_nodes(); ++i) {
      group_->node(i)->gtm()->trace()->Enable(64);
    }
    Result<PromotionReport> r = group_->Promote();
    EXPECT_TRUE(r.ok());
    return r.value();
  }();
  EXPECT_EQ(rep.grant_events_synthesized, 1);
  // The re-announced grant reaches whoever pumps events next, so a parked
  // session re-binds and resumes instead of hanging forever.
  std::vector<gtm::GtmEvent> events = group_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].txn, t);
  EXPECT_EQ(events[0].object, "X");
  bool saw_promote = false;
  for (const gtm::TraceEvent& e : group_->primary_gtm()->trace()->Snapshot()) {
    if (e.kind == gtm::TraceEventKind::kPromote) saw_promote = true;
  }
  EXPECT_TRUE(saw_promote);
}

TEST_F(ReplicaFailoverTest, SecondFailoverPromotesTheLastBackup) {
  const TxnId t = group_->Begin();
  ASSERT_TRUE(group_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  KillAndPromote();
  ASSERT_TRUE(group_->RequestCommit(t).ok());
  KillAndPromote();
  EXPECT_EQ(group_->epoch(), 3u);
  EXPECT_EQ(PrimaryQty(), Value::Int(99));
  // With every other node dead, losing this primary is unrecoverable.
  group_->KillPrimary();
  EXPECT_EQ(group_->Promote().status().code(), StatusCode::kUnavailable);
}

// Async shipping: a primary killed before its first ship round takes the
// whole bootstrap (CreateTable, InsertRow, RegisterObject) with it. The
// promoted backup knows no table and no object; it must refuse work on
// them cleanly rather than crash, and stay internally consistent.
TEST(ReplicaAsyncFailoverTest, PromotedBackupWithoutBootstrapRefusesCleanly) {
  ManualClock clock;
  Rng ship_rng(0x5eedULL);
  ReplicaOptions opts;
  opts.num_backups = 1;
  opts.ship.mode = ShipMode::kAsync;
  ReplicatedGtm group(&clock, gtm::GtmOptions{}, opts, &ship_rng);
  Bootstrap(&group);

  group.KillPrimary();  // No Pump(): nothing reached the backup.
  Result<PromotionReport> rep = group.Promote();
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_GT(rep.value().truncated_records, 0u);
  EXPECT_FALSE(group.primary_db()->GetTable("obj").ok());

  const TxnId t = group.Begin();
  ASSERT_NE(t, kInvalidTxnId);
  const Status s =
      group.InvokeOnce(t, 1, "X", 0, Operation::Sub(Value::Int(1)));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.code(), StatusCode::kUnavailable);  // An answer, not silence.
  EXPECT_TRUE(group.primary_gtm()->CheckInvariants().ok());
}

}  // namespace
}  // namespace preserial::replica
