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

class GtmSleepTest : public ::testing::Test {
 protected:
  void SetUp() override { Rebuild(GtmOptions()); }

  void Rebuild(GtmOptions options) {
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
    clock_.Set(0.0);
    gtm_ = std::make_unique<Gtm>(db_.get(), &clock_, options);
    ASSERT_TRUE(gtm_->RegisterObject("X", "obj", Value::Int(0), {1}).ok());
  }

  Value DbQty() {
    return db_->GetTable("obj").value()->GetColumnByKey(Value::Int(0), 1)
        .value();
  }

  void ExpectInvariants() {
    const Status s = gtm_->CheckInvariants();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  std::unique_ptr<storage::Database> db_;
  ManualClock clock_;
  std::unique_ptr<Gtm> gtm_;
};

TEST_F(GtmSleepTest, SleepAndAwakeWithoutInterference) {
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Sleep(t).ok());
  EXPECT_EQ(gtm_->StateOf(t).value(), TxnState::kSleeping);
  clock_.Advance(50.0);
  ASSERT_TRUE(gtm_->Awake(t).ok());
  EXPECT_EQ(gtm_->StateOf(t).value(), TxnState::kActive);
  // Final at the wake; the commit below frees the transaction's record.
  EXPECT_DOUBLE_EQ(gtm_->GetTxn(t)->total_sleep_time, 50.0);
  // The transaction resumes and finishes its work (the paper's headline).
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(t).ok());
  EXPECT_EQ(DbQty(), Value::Int(98));
  EXPECT_EQ(gtm_->metrics().counters().sleeps, 1);
  EXPECT_EQ(gtm_->metrics().counters().awakes, 1);
  ExpectInvariants();
}

TEST_F(GtmSleepTest, SleeperDoesNotBlockIncompatibleNewcomers) {
  const TxnId sleeper = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Sleep(sleeper).ok());
  // An assignment — incompatible with the sleeping subtraction — is
  // admitted immediately: sleepers hold no admission rights (Alg 2).
  const TxnId admin = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(admin, "X", 0, Operation::Assign(Value::Int(42))).ok());
  EXPECT_EQ(gtm_->StateOf(admin).value(), TxnState::kActive);
  ExpectInvariants();
}

TEST_F(GtmSleepTest, AwakeAbortsAfterIncompatibleCommit) {
  const TxnId sleeper = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Advance(1.0);
  ASSERT_TRUE(gtm_->Sleep(sleeper).ok());
  // While asleep, an incompatible assignment commits.
  const TxnId admin = gtm_->Begin();
  clock_.Advance(1.0);
  ASSERT_TRUE(
      gtm_->Invoke(admin, "X", 0, Operation::Assign(Value::Int(42))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(admin).ok());
  clock_.Advance(1.0);
  const Status s = gtm_->Awake(sleeper);
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(gtm_->StateOf(sleeper).value(), TxnState::kAborted);
  EXPECT_EQ(gtm_->metrics().counters().awake_aborts, 1);
  EXPECT_EQ(DbQty(), Value::Int(42));  // Only the admin's write.
  ExpectInvariants();
}

TEST_F(GtmSleepTest, AwakeSurvivesCompatibleCommit) {
  const TxnId sleeper = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Sleep(sleeper).ok());
  // A compatible subtraction commits during the sleep.
  const TxnId other = gtm_->Begin();
  clock_.Advance(1.0);
  ASSERT_TRUE(
      gtm_->Invoke(other, "X", 0, Operation::Sub(Value::Int(5))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(other).ok());
  clock_.Advance(1.0);
  ASSERT_TRUE(gtm_->Awake(sleeper).ok());
  ASSERT_TRUE(gtm_->RequestCommit(sleeper).ok());
  // Reconciliation merges both deltas.
  EXPECT_EQ(DbQty(), Value::Int(94));
  ExpectInvariants();
}

TEST_F(GtmSleepTest, AwakeAbortsWhileIncompatibleHolderStillPending) {
  const TxnId sleeper = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Sleep(sleeper).ok());
  const TxnId admin = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(admin, "X", 0, Operation::Assign(Value::Int(1))).ok());
  // The admin has not even committed: the awake still aborts (Alg 9 checks
  // X_pending too).
  EXPECT_EQ(gtm_->Awake(sleeper).code(), StatusCode::kAborted);
  ExpectInvariants();
}

TEST_F(GtmSleepTest, CommitBeforeSleepProtectsSleeper) {
  // An incompatible commit BEFORE the sleep does not abort the sleeper
  // (X_tc <= A_t_sleep): it conflicted while awake, meaning it never got
  // in, or it finished before the sleeper's grant. Its summary slot keeps
  // it forever, so the strict comparison is what lets the sleeper wake.
  const TxnId early = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(early, "X", 0, Operation::Assign(Value::Int(50))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(early).ok());  // X_tc = 0.
  clock_.Advance(1.0);
  const TxnId sleeper = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Advance(1.0);
  ASSERT_TRUE(gtm_->Sleep(sleeper).ok());  // A_t_sleep = 2.
  clock_.Advance(1.0);
  ASSERT_TRUE(gtm_->Awake(sleeper).ok());
  ASSERT_TRUE(gtm_->RequestCommit(sleeper).ok());
  EXPECT_EQ(DbQty(), Value::Int(49));

  // Boundary: the assignment commits at the very instant the next sleeper
  // is granted and falls asleep, X_tc == A_t_sleep. It does not doom it.
  clock_.Advance(1.0);
  const TxnId same_instant = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(same_instant, "X", 0,
                           Operation::Assign(Value::Int(20)))
                  .ok());
  ASSERT_TRUE(gtm_->RequestCommit(same_instant).ok());
  const TxnId boundary = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(boundary, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Sleep(boundary).ok());
  EXPECT_DOUBLE_EQ(gtm_->GetTxn(boundary)->sleep_since(),
                   gtm_->GetObject("X")
                       .value()
                       ->committed.Latest(0, semantics::OpClass::kUpdateAssign)
                       .commit_time);
  clock_.Advance(1.0);
  const obs::GtmExplain explain = gtm_->Explain();
  ASSERT_NE(explain.VerdictFor(boundary), nullptr);
  EXPECT_FALSE(explain.VerdictFor(boundary)->will_abort);
  ASSERT_TRUE(gtm_->Awake(boundary).ok());
  ASSERT_TRUE(gtm_->RequestCommit(boundary).ok());
  EXPECT_EQ(DbQty(), Value::Int(19));
  ExpectInvariants();
}

TEST_F(GtmSleepTest, CommitOnDependentMemberDoomsSleeper) {
  // Two objects of two members each: on "D" the members are logically
  // dependent, on "I" they are not. A sleeper holds Sub on member 0 of
  // each; an assignment then commits on member 1 of each.
  Schema schema = Schema::Create(
                      {
                          ColumnDef{"id", ValueType::kInt64, false},
                          ColumnDef{"qty", ValueType::kInt64, false},
                          ColumnDef{"price", ValueType::kInt64, false},
                      },
                      0)
                      .value();
  ASSERT_TRUE(db_->CreateTable("pair", std::move(schema)).ok());
  for (int64_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(db_->InsertRow("pair", Row({Value::Int(k), Value::Int(10),
                                            Value::Int(100)}))
                    .ok());
  }
  semantics::LogicalDependencies deps;
  deps.AddDependency(0, 1);
  ASSERT_TRUE(
      gtm_->RegisterObject("D", "pair", Value::Int(0), {1, 2}, deps).ok());
  ASSERT_TRUE(gtm_->RegisterObject("I", "pair", Value::Int(1), {1, 2}).ok());

  auto sleep_holding_sub = [&](const ObjectId& object) {
    const TxnId t = gtm_->Begin();
    EXPECT_TRUE(
        gtm_->Invoke(t, object, 0, Operation::Sub(Value::Int(1))).ok());
    EXPECT_TRUE(gtm_->Sleep(t).ok());
    return t;
  };
  auto commit_price = [&](const ObjectId& object) {
    const TxnId t = gtm_->Begin();
    EXPECT_TRUE(
        gtm_->Invoke(t, object, 1, Operation::Assign(Value::Int(90))).ok());
    EXPECT_TRUE(gtm_->RequestCommit(t).ok());
    return t;
  };
  clock_.Advance(1.0);
  const TxnId dependent = sleep_holding_sub("D");
  const TxnId independent = sleep_holding_sub("I");
  clock_.Advance(1.0);
  const TxnId price_d = commit_price("D");
  commit_price("I");
  clock_.Advance(1.0);

  const obs::GtmExplain explain = gtm_->Explain();
  const obs::SleeperVerdict* v = explain.VerdictFor(dependent);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->will_abort);
  EXPECT_EQ(v->blocker, price_d);
  EXPECT_DOUBLE_EQ(v->blocker_commit_time, 2.0);
  ASSERT_NE(explain.VerdictFor(independent), nullptr);
  EXPECT_FALSE(explain.VerdictFor(independent)->will_abort);

  EXPECT_EQ(gtm_->Awake(dependent).code(), StatusCode::kAborted);
  ASSERT_TRUE(gtm_->Awake(independent).ok());
  ASSERT_TRUE(gtm_->RequestCommit(independent).ok());
  EXPECT_EQ(gtm_->PermanentValue("I", 0).value(), Value::Int(9));
  EXPECT_EQ(gtm_->PermanentValue("I", 1).value(), Value::Int(90));
  EXPECT_EQ(gtm_->PermanentValue("D", 0).value(), Value::Int(10));
  ExpectInvariants();
}

TEST_F(GtmSleepTest, SleepingWaiterSkippedByAdmissionPump) {
  const TxnId holder = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(holder, "X", 0, Operation::Assign(Value::Int(1))).ok());
  const TxnId w1 = gtm_->Begin();
  const TxnId w2 = gtm_->Begin();
  EXPECT_EQ(gtm_->Invoke(w1, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kWaiting);
  EXPECT_EQ(gtm_->Invoke(w2, "X", 0, Operation::Sub(Value::Int(2))).code(),
            StatusCode::kWaiting);
  // The first waiter disconnects while queued.
  ASSERT_TRUE(gtm_->Sleep(w1).ok());
  ASSERT_TRUE(gtm_->RequestCommit(holder).ok());
  // theta(X_waiting - X_sleeping): only w2 admitted.
  std::vector<GtmEvent> events = gtm_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].txn, w2);
  EXPECT_EQ(gtm_->StateOf(w1).value(), TxnState::kSleeping);
  ExpectInvariants();
}

TEST_F(GtmSleepTest, SleepingWaiterAdmittedDirectlyAtAwake) {
  const TxnId holder = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(holder, "X", 0, Operation::Assign(Value::Int(50))).ok());
  const TxnId w = gtm_->Begin();
  EXPECT_EQ(gtm_->Invoke(w, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kWaiting);
  ASSERT_TRUE(gtm_->Sleep(w).ok());
  clock_.Advance(1.0);
  ASSERT_TRUE(gtm_->RequestCommit(holder).ok());
  EXPECT_TRUE(gtm_->TakeEvents().empty());  // Sleeper skipped by the pump.
  clock_.Advance(1.0);
  // Alg 9 case 1: the awake admits the queued invocation directly with a
  // fresh snapshot... but the holder committed DURING the sleep and the
  // assignment is incompatible with the queued subtraction -> abort.
  EXPECT_EQ(gtm_->Awake(w).code(), StatusCode::kAborted);
  ExpectInvariants();
}

TEST_F(GtmSleepTest, SleepingWaiterAwakeAdmissionSucceedsWhenClear) {
  const TxnId holder = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(holder, "X", 0, Operation::Assign(Value::Int(50))).ok());
  const TxnId w = gtm_->Begin();
  clock_.Advance(1.0);
  EXPECT_EQ(gtm_->Invoke(w, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kWaiting);
  // The holder ABORTS (no commit) while w is queued-but-awake... first let
  // w sleep, then the holder aborts, then w awakes: nothing committed since
  // the sleep, nothing pending -> case 1 admits w directly.
  ASSERT_TRUE(gtm_->Sleep(w).ok());
  ASSERT_TRUE(gtm_->RequestAbort(holder).ok());
  EXPECT_TRUE(gtm_->TakeEvents().empty());
  clock_.Advance(1.0);
  ASSERT_TRUE(gtm_->Awake(w).ok());
  EXPECT_EQ(gtm_->StateOf(w).value(), TxnState::kActive);
  EXPECT_EQ(gtm_->ReadLocal(w, "X", 0).value(), Value::Int(99));
  ASSERT_TRUE(gtm_->RequestCommit(w).ok());
  EXPECT_EQ(DbQty(), Value::Int(99));
  ExpectInvariants();
}

TEST_F(GtmSleepTest, TwoSleepersDoNotKillEachOther) {
  const TxnId a = gtm_->Begin();
  const TxnId b = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(2))).ok());
  ASSERT_TRUE(gtm_->Sleep(a).ok());
  ASSERT_TRUE(gtm_->Sleep(b).ok());
  ASSERT_TRUE(gtm_->Awake(a).ok());
  ASSERT_TRUE(gtm_->Awake(b).ok());
  ASSERT_TRUE(gtm_->RequestCommit(a).ok());
  ASSERT_TRUE(gtm_->RequestCommit(b).ok());
  EXPECT_EQ(DbQty(), Value::Int(97));
  ExpectInvariants();
}

TEST_F(GtmSleepTest, SleepRequiresActiveOrWaiting) {
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Read()).ok());
  ASSERT_TRUE(gtm_->Sleep(t).ok());
  // Sleeping twice is invalid (Alg 8 precondition).
  EXPECT_EQ(gtm_->Sleep(t).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(gtm_->Awake(t).ok());
  // Awake of a non-sleeper is invalid.
  EXPECT_EQ(gtm_->Awake(t).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(gtm_->RequestCommit(t).ok());
  EXPECT_EQ(gtm_->Sleep(t).code(), StatusCode::kFailedPrecondition);
}

TEST_F(GtmSleepTest, SleepingTransactionCanBeAborted) {
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Sleep(t).ok());
  ASSERT_TRUE(gtm_->RequestAbort(t).ok());
  EXPECT_EQ(gtm_->StateOf(t).value(), TxnState::kAborted);
  ExpectInvariants();
}

TEST_F(GtmSleepTest, SleepDisabledAblationAbortsOnDisconnect) {
  GtmOptions options;
  options.sleep_enabled = false;
  Rebuild(options);
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  EXPECT_EQ(gtm_->Sleep(t).code(), StatusCode::kAborted);
  EXPECT_EQ(gtm_->StateOf(t).value(), TxnState::kAborted);
  EXPECT_EQ(gtm_->metrics().counters().disconnect_aborts, 1);
  ExpectInvariants();
}

TEST_F(GtmSleepTest, IdleOracleParksInactiveTransactions) {
  const TxnId busy = gtm_->Begin();
  const TxnId idle = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(busy, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Invoke(idle, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Advance(8.0);
  // `busy` keeps interacting; `idle` goes quiet.
  ASSERT_TRUE(gtm_->Invoke(busy, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Advance(8.0);
  std::vector<TxnId> parked = gtm_->SleepIdleTransactions(10.0);
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_EQ(parked[0], idle);
  EXPECT_EQ(gtm_->StateOf(idle).value(), TxnState::kSleeping);
  EXPECT_EQ(gtm_->StateOf(busy).value(), TxnState::kActive);
  // The parked transaction resumes like any sleeper.
  ASSERT_TRUE(gtm_->Awake(idle).ok());
  ASSERT_TRUE(gtm_->RequestCommit(idle).ok());
  ASSERT_TRUE(gtm_->RequestCommit(busy).ok());
  EXPECT_EQ(DbQty(), Value::Int(97));
  ExpectInvariants();
}

TEST_F(GtmSleepTest, IdleOracleIgnoresFreshAwakenings) {
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Advance(20.0);
  ASSERT_EQ(gtm_->SleepIdleTransactions(10.0).size(), 1u);
  clock_.Advance(5.0);
  ASSERT_TRUE(gtm_->Awake(t).ok());
  // The reconnection refreshed the activity clock: not re-parked.
  EXPECT_TRUE(gtm_->SleepIdleTransactions(10.0).empty());
  EXPECT_EQ(gtm_->StateOf(t).value(), TxnState::kActive);
}

TEST_F(GtmSleepTest, AwakeChecksEveryInvolvedObject) {
  ASSERT_TRUE(
      db_->InsertRow("obj", Row({Value::Int(1), Value::Int(10)})).ok());
  ASSERT_TRUE(gtm_->RegisterObject("Y", "obj", Value::Int(1), {1}).ok());
  const TxnId sleeper = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "Y", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Advance(1.0);
  ASSERT_TRUE(gtm_->Sleep(sleeper).ok());
  // Incompatible commit on the SECOND object only.
  const TxnId admin = gtm_->Begin();
  clock_.Advance(1.0);
  ASSERT_TRUE(
      gtm_->Invoke(admin, "Y", 0, Operation::Assign(Value::Int(7))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(admin).ok());
  EXPECT_EQ(gtm_->Awake(sleeper).code(), StatusCode::kAborted);
  ExpectInvariants();
}

}  // namespace
}  // namespace preserial::gtm
