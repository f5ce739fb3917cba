#include <memory>

#include <gtest/gtest.h>

#include "gtm/gtm.h"
#include "storage/database.h"

namespace preserial::gtm {
namespace {

using semantics::OpClass;
using semantics::Operation;
using storage::CheckConstraint;
using storage::ColumnDef;
using storage::CompareOp;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

class GtmPoliciesTest : public ::testing::Test {
 protected:
  void Rebuild(GtmOptions options, int64_t initial_qty = 100,
               bool with_constraint = false) {
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
    ASSERT_TRUE(db_->InsertRow("obj", Row({Value::Int(0),
                                           Value::Int(initial_qty)}))
                    .ok());
    if (with_constraint) {
      ASSERT_TRUE(db_->AddConstraint("obj", CheckConstraint("nonneg", 1,
                                                            CompareOp::kGe,
                                                            Value::Int(0)))
                      .ok());
    }
    clock_.Set(0.0);
    gtm_ = std::make_unique<Gtm>(db_.get(), &clock_, options);
    ASSERT_TRUE(gtm_->RegisterObject("X", "obj", Value::Int(0), {1}).ok());
  }

  Value DbQty() {
    return db_->GetTable("obj").value()->GetColumnByKey(Value::Int(0), 1)
        .value();
  }

  std::unique_ptr<storage::Database> db_;
  ManualClock clock_;
  std::unique_ptr<Gtm> gtm_;
};

// --- starvation guard (Sec. VII mitigation 1) ----------------------------------

TEST_F(GtmPoliciesTest, StarvationGuardDisabledByDefault) {
  Rebuild(GtmOptions());
  const TxnId a = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  const TxnId admin = gtm_->Begin();
  EXPECT_EQ(
      gtm_->Invoke(admin, "X", 0, Operation::Assign(Value::Int(9))).code(),
      StatusCode::kWaiting);
  // Without the guard, new subtractors keep flowing past the waiting
  // assignment — the starvation the paper warns about.
  const TxnId b = gtm_->Begin();
  EXPECT_TRUE(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(1))).ok());
}

TEST_F(GtmPoliciesTest, StarvationGuardDeniesFastPath) {
  GtmOptions options;
  options.starvation_waiter_threshold = 1;
  Rebuild(options);
  const TxnId a = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  const TxnId admin = gtm_->Begin();
  EXPECT_EQ(
      gtm_->Invoke(admin, "X", 0, Operation::Assign(Value::Int(9))).code(),
      StatusCode::kWaiting);
  // The guard sees one incompatible waiter and queues the newcomer even
  // though it is compatible with the current holder.
  const TxnId b = gtm_->Begin();
  EXPECT_EQ(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kWaiting);
  EXPECT_EQ(gtm_->metrics().counters().starvation_denials, 1);
  // Drain: a commits -> admin admitted; admin commits -> b admitted.
  ASSERT_TRUE(gtm_->RequestCommit(a).ok());
  std::vector<GtmEvent> events = gtm_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].txn, admin);
  ASSERT_TRUE(gtm_->RequestCommit(admin).ok());
  events = gtm_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].txn, b);
  ASSERT_TRUE(gtm_->RequestCommit(b).ok());
  EXPECT_EQ(DbQty(), Value::Int(8));  // 100-1 -> 9 -> 9-1.
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

TEST_F(GtmPoliciesTest, StarvationGuardCountsWaitersByExclusiveRelation) {
  GtmOptions options;
  options.semantic_sharing = false;
  options.starvation_waiter_threshold = 1;
  Rebuild(options);
  const TxnId holder = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(holder, "X", 0, Operation::Read()).ok());
  // Under the exclusive relation only read/read shares, so the
  // subtraction queues behind the read...
  const TxnId waiter = gtm_->Begin();
  EXPECT_EQ(gtm_->Invoke(waiter, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kWaiting);
  // ...and counts as an incompatible waiter for a newcomer's read, which
  // the guard queues although it would share with the holder.
  const TxnId reader = gtm_->Begin();
  EXPECT_EQ(gtm_->Invoke(reader, "X", 0, Operation::Read()).code(),
            StatusCode::kWaiting);
  EXPECT_EQ(gtm_->metrics().counters().starvation_denials, 1);
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

// --- constraint-aware admission (Sec. VII mitigation 2) --------------------------

TEST_F(GtmPoliciesTest, AdmissionDeniesOverdraft) {
  GtmOptions options;
  options.constraint_aware_admission = true;
  Rebuild(options, /*initial_qty=*/2, /*with_constraint=*/true);
  const TxnId a = gtm_->Begin();
  const TxnId b = gtm_->Begin();
  const TxnId c = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(1))).ok());
  // The third concurrent subtraction would make the pessimistic projection
  // negative: refused up front instead of aborting at SST time.
  EXPECT_EQ(gtm_->Invoke(c, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(gtm_->StateOf(c).value(), TxnState::kActive);
  EXPECT_EQ(gtm_->metrics().counters().admission_denials, 1);
  // Everyone who was admitted commits cleanly — zero constraint aborts.
  ASSERT_TRUE(gtm_->RequestCommit(a).ok());
  ASSERT_TRUE(gtm_->RequestCommit(b).ok());
  EXPECT_EQ(DbQty(), Value::Int(0));
  EXPECT_EQ(gtm_->metrics().counters().constraint_aborts, 0);
}

TEST_F(GtmPoliciesTest, AdmissionFreesCapacityAfterAbort) {
  GtmOptions options;
  options.constraint_aware_admission = true;
  Rebuild(options, /*initial_qty=*/1, /*with_constraint=*/true);
  const TxnId a = gtm_->Begin();
  const TxnId b = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  EXPECT_EQ(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kConstraintViolation);
  // a gives the seat back; b can now take it.
  ASSERT_TRUE(gtm_->RequestAbort(a).ok());
  ASSERT_TRUE(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(b).ok());
  EXPECT_EQ(DbQty(), Value::Int(0));
}

TEST_F(GtmPoliciesTest, AdmissionAppliesPerOperationNotJustAtGrant) {
  GtmOptions options;
  options.constraint_aware_admission = true;
  Rebuild(options, /*initial_qty=*/3, /*with_constraint=*/true);
  const TxnId t = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(2))).ok());
  // A further subtraction through the existing grant is still checked.
  EXPECT_EQ(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(2))).code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(gtm_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(t).ok());
  EXPECT_EQ(DbQty(), Value::Int(0));
}

TEST_F(GtmPoliciesTest, AdmissionIgnoresPositiveDeltas) {
  GtmOptions options;
  options.constraint_aware_admission = true;
  Rebuild(options, /*initial_qty=*/0, /*with_constraint=*/true);
  const TxnId adder = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(adder, "X", 0, Operation::Add(Value::Int(5))).ok());
  // The pending +5 may still abort, so a subtraction cannot ride on it.
  const TxnId taker = gtm_->Begin();
  EXPECT_EQ(gtm_->Invoke(taker, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(gtm_->RequestCommit(adder).ok());
  // Once committed, the capacity is real.
  ASSERT_TRUE(gtm_->Invoke(taker, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(taker).ok());
  EXPECT_EQ(DbQty(), Value::Int(4));
}

TEST_F(GtmPoliciesTest, WithoutAdmissionOverdraftAbortsAtSst) {
  GtmOptions options;
  options.constraint_aware_admission = false;
  Rebuild(options, /*initial_qty=*/1, /*with_constraint=*/true);
  const TxnId a = gtm_->Begin();
  const TxnId b = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->RequestCommit(a).ok());
  EXPECT_EQ(gtm_->RequestCommit(b).code(), StatusCode::kAborted);
  EXPECT_EQ(gtm_->metrics().counters().constraint_aborts, 1);
}

// --- semantic sharing ablation ---------------------------------------------------

TEST_F(GtmPoliciesTest, ExclusiveModeBlocksCompatibleClasses) {
  GtmOptions options;
  options.semantic_sharing = false;
  Rebuild(options);
  const TxnId a = gtm_->Begin();
  const TxnId b = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  // Two subtractions would share under Table I; the ablation serializes
  // them like an exclusive-lock middleware.
  EXPECT_EQ(gtm_->Invoke(b, "X", 0, Operation::Sub(Value::Int(1))).code(),
            StatusCode::kWaiting);
  ASSERT_TRUE(gtm_->RequestCommit(a).ok());
  ASSERT_EQ(gtm_->TakeEvents().size(), 1u);
  ASSERT_TRUE(gtm_->RequestCommit(b).ok());
  EXPECT_EQ(DbQty(), Value::Int(98));
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

TEST_F(GtmPoliciesTest, ExclusiveModeStillSharesReads) {
  GtmOptions options;
  options.semantic_sharing = false;
  Rebuild(options);
  const TxnId a = gtm_->Begin();
  const TxnId b = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Read()).ok());
  EXPECT_TRUE(gtm_->Invoke(b, "X", 0, Operation::Read()).ok());
}

// --- X_committed summarised per (member, class) -----------------------------

TEST_F(GtmPoliciesTest, CommitSummaryHoldsLatestCommitPerClass) {
  Rebuild(GtmOptions{});
  const ObjectState* obj = gtm_->GetObject("X").value();
  auto commit = [&](const Operation& op) {
    const TxnId t = gtm_->Begin();
    EXPECT_TRUE(gtm_->Invoke(t, "X", 0, op).ok());
    EXPECT_TRUE(gtm_->RequestCommit(t).ok());
    return t;
  };
  auto latest = [&](OpClass cls) { return obj->committed.Latest(0, cls); };
  EXPECT_EQ(obj->committed.size(), 0u);
  // Three subtractions at X_tc = 0, 1, 2: one slot, naming the last.
  TxnId sub = kInvalidTxnId;
  for (int i = 0; i < 3; ++i) {
    sub = commit(Operation::Sub(Value::Int(1)));
    clock_.Advance(1.0);
  }
  EXPECT_EQ(obj->committed.size(), 1u);
  EXPECT_EQ(latest(OpClass::kUpdateAddSub).txn, sub);
  EXPECT_DOUBLE_EQ(latest(OpClass::kUpdateAddSub).commit_time, 2.0);
  // An assignment at X_tc = 3 takes its own slot and leaves add/sub alone.
  const TxnId assign = commit(Operation::Assign(Value::Int(50)));
  EXPECT_EQ(obj->committed.size(), 2u);
  EXPECT_EQ(latest(OpClass::kUpdateAssign).txn, assign);
  EXPECT_DOUBLE_EQ(latest(OpClass::kUpdateAssign).commit_time, 3.0);
  EXPECT_EQ(latest(OpClass::kUpdateAddSub).txn, sub);
  // A sleeper falls asleep holding Sub at A_t_sleep = 4; two more
  // subtractions commit at X_tc = 5 and 6 and move only the add/sub slot.
  const TxnId sleeper = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Set(4.0);
  ASSERT_TRUE(gtm_->Sleep(sleeper).ok());
  for (int i = 0; i < 2; ++i) {
    clock_.Advance(1.0);
    sub = commit(Operation::Sub(Value::Int(1)));
  }
  EXPECT_EQ(obj->committed.size(), 2u);
  EXPECT_EQ(latest(OpClass::kUpdateAddSub).txn, sub);
  EXPECT_DOUBLE_EQ(latest(OpClass::kUpdateAddSub).commit_time, 6.0);
  EXPECT_EQ(latest(OpClass::kUpdateAssign).txn, assign);
  EXPECT_DOUBLE_EQ(latest(OpClass::kUpdateAssign).commit_time, 3.0);
  EXPECT_EQ(latest(OpClass::kRead).txn, kInvalidTxnId);
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
  // The assignment predates the sleep, so the sleeper wakes and commits.
  ASSERT_TRUE(gtm_->Awake(sleeper).ok());
  ASSERT_TRUE(gtm_->RequestCommit(sleeper).ok());
  EXPECT_EQ(latest(OpClass::kUpdateAddSub).txn, sleeper);
  EXPECT_EQ(DbQty(), Value::Int(47));  // 50 - 1 - 1 - 1.
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

// --- deadlock detection toggle ---------------------------------------------------

TEST_F(GtmPoliciesTest, DeadlockDetectionOffLeavesCycleForTimeout) {
  GtmOptions options;
  options.deadlock_detection = false;
  Rebuild(options);
  ASSERT_TRUE(
      db_->InsertRow("obj", Row({Value::Int(1), Value::Int(50)})).ok());
  ASSERT_TRUE(gtm_->RegisterObject("Y", "obj", Value::Int(1), {1}).ok());
  const TxnId a = gtm_->Begin();
  const TxnId b = gtm_->Begin();
  ASSERT_TRUE(gtm_->Invoke(a, "X", 0, Operation::Assign(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->Invoke(b, "Y", 0, Operation::Assign(Value::Int(2))).ok());
  EXPECT_EQ(gtm_->Invoke(a, "Y", 0, Operation::Assign(Value::Int(3))).code(),
            StatusCode::kWaiting);
  // With detection off the cycle forms silently...
  EXPECT_EQ(gtm_->Invoke(b, "X", 0, Operation::Assign(Value::Int(4))).code(),
            StatusCode::kWaiting);
  lock::WaitsForGraph wfg = gtm_->BuildWaitsForGraph();
  EXPECT_TRUE(wfg.DetectAnyCycle());
  // ...and the timeout sweep is the escape hatch (classical 2PL treatment,
  // as the paper prescribes in Sec. VII).
  clock_.Advance(100.0);
  std::vector<TxnId> victims = gtm_->AbortExpiredWaits(10.0);
  EXPECT_EQ(victims.size(), 2u);
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

}  // namespace
}  // namespace preserial::gtm
