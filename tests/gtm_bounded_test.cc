// Long runs stay bounded. X_committed is summarised as the latest commit
// of each (member, class), so its size is fixed by the objects' members
// whatever the history or the sleepers, and committed or aborted
// transactions leave the live map. A sleeper that stays asleep across many
// commits is still judged exactly, and finished transactions still answer
// retried requests.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "gtm/gtm.h"
#include "gtm/gtm_service.h"
#include "replica/replica.h"
#include "storage/database.h"

namespace preserial::gtm {
namespace {

using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr int64_t kInitialQty = 1000000000;
constexpr int kLongSleepCommits = 10000;

// Every (member, class) slot of two commit summaries holds the same
// transaction and X_tc.
void ExpectSameSummary(const ObjectState& a, const ObjectState& b) {
  ASSERT_EQ(a.num_members(), b.num_members());
  for (semantics::MemberId m = 0; m < a.num_members(); ++m) {
    for (size_t c = 0; c < semantics::kNumOpClasses; ++c) {
      const auto cls = static_cast<semantics::OpClass>(c);
      EXPECT_EQ(a.committed.Latest(m, cls).txn, b.committed.Latest(m, cls).txn)
          << "member " << m << " class " << c;
      EXPECT_EQ(a.committed.Latest(m, cls).commit_time,
                b.committed.Latest(m, cls).commit_time)
          << "member " << m << " class " << c;
    }
  }
}

Schema ObjSchema() {
  return Schema::Create(
             {
                 ColumnDef{"id", ValueType::kInt64, false},
                 ColumnDef{"qty", ValueType::kInt64, false},
             },
             0)
      .value();
}

class GtmBoundedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<storage::Database>();
    ASSERT_TRUE(db_->Open().ok());
    ASSERT_TRUE(db_->CreateTable("obj", ObjSchema()).ok());
    clock_.Set(0.0);
    gtm_ = std::make_unique<Gtm>(db_.get(), &clock_);
    for (int64_t k = 0; k < 4; ++k) {
      ASSERT_TRUE(
          db_->InsertRow("obj", Row({Value::Int(k), Value::Int(kInitialQty)}))
              .ok());
      ASSERT_TRUE(
          gtm_->RegisterObject(ObjectName(k), "obj", Value::Int(k), {1}).ok());
    }
  }

  static ObjectId ObjectName(int64_t k) { return "X" + std::to_string(k); }

  // One short transaction: `op` on member 0 of `object`, then commit.
  TxnId CommitOne(const ObjectId& object, const Operation& op) {
    const TxnId t = gtm_->Begin();
    EXPECT_TRUE(gtm_->Invoke(t, object, 0, op).ok());
    EXPECT_TRUE(gtm_->RequestCommit(t).ok());
    return t;
  }

  // Parks a transaction holding Sub on X0 at A_t_sleep = now.
  TxnId SleepHoldingSub() {
    const TxnId s = gtm_->Begin();
    EXPECT_TRUE(gtm_->Invoke(s, "X0", 0, Operation::Sub(Value::Int(1))).ok());
    EXPECT_TRUE(gtm_->Sleep(s).ok());
    return s;
  }

  const ObjectState& Obj(const ObjectId& id) {
    return *gtm_->GetObject(id).value();
  }

  std::unique_ptr<storage::Database> db_;
  ManualClock clock_;
  std::unique_ptr<Gtm> gtm_;
};

TEST_F(GtmBoundedTest, LongSleeperWakesAcrossCompatibleCommits) {
  constexpr int kCommits = 100000;
  clock_.Set(1.0);
  const TxnId sleeper = SleepHoldingSub();
  EXPECT_EQ(Obj("X0").committed.size(), 0u);
  for (int i = 0; i < kCommits; ++i) {
    clock_.Advance(0.001);
    const TxnId t = CommitOne("X0", Operation::Sub(Value::Int(1)));
    // Every commit is newer than A_t_sleep, yet the summary holds one
    // slot, (member 0, add/sub), which names the latest of them.
    ASSERT_EQ(Obj("X0").committed.size(), 1u) << "commit " << i;
    ASSERT_EQ(Obj("X0").committed.Latest(0, semantics::OpClass::kUpdateAddSub)
                  .txn,
              t);
  }
  EXPECT_EQ(gtm_->live_transaction_count(), 1u);
  const obs::GtmExplain explain = gtm_->Explain();
  ASSERT_NE(explain.VerdictFor(sleeper), nullptr);
  EXPECT_FALSE(explain.VerdictFor(sleeper)->will_abort);
  ASSERT_TRUE(gtm_->CheckInvariants().ok());

  ASSERT_TRUE(gtm_->Awake(sleeper).ok());
  ASSERT_TRUE(gtm_->RequestCommit(sleeper).ok());
  // The sleeper's own commit takes over the same slot.
  EXPECT_EQ(Obj("X0").committed.size(), 1u);
  EXPECT_EQ(
      Obj("X0").committed.Latest(0, semantics::OpClass::kUpdateAddSub).txn,
      sleeper);
  EXPECT_EQ(gtm_->live_transaction_count(), 0u);
  EXPECT_EQ(gtm_->PermanentValue("X0", 0).value(),
            Value::Int(kInitialQty - kCommits - 1));
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

TEST_F(GtmBoundedTest, LongSleeperAwakeAbortsOnOneIncompatibleAssign) {
  clock_.Set(1.0);
  const TxnId sleeper = SleepHoldingSub();
  TxnId assign = kInvalidTxnId;
  TimePoint assign_tc = 0;
  for (int i = 0; i < kLongSleepCommits; ++i) {
    clock_.Advance(0.001);
    if (i == kLongSleepCommits / 2) {
      assign = CommitOne("X0", Operation::Assign(Value::Int(kInitialQty)));
      assign_tc = clock_.Now();
    } else {
      CommitOne("X0", Operation::Sub(Value::Int(1)));
    }
  }
  const obs::GtmExplain explain = gtm_->Explain();
  const obs::SleeperVerdict* v = explain.VerdictFor(sleeper);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->will_abort);
  EXPECT_EQ(v->object, "X0");
  EXPECT_EQ(v->blocker, assign);
  EXPECT_DOUBLE_EQ(v->blocker_commit_time, assign_tc);
  EXPECT_NE(v->reason.find(std::to_string(assign)), std::string::npos)
      << v->reason;

  EXPECT_EQ(gtm_->Awake(sleeper).code(), StatusCode::kAborted);
  EXPECT_EQ(gtm_->StateOf(sleeper).value(), TxnState::kAborted);
  EXPECT_EQ(gtm_->metrics().counters().awake_aborts, 1);
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

TEST_F(GtmBoundedTest, SleeperFreeCommitsLeaveNoLiveState) {
  constexpr int kCommits = 100000;
  // The first transaction commits through the idempotent endpoint, so its
  // cached reply can be replayed at the end.
  const TxnId first = gtm_->Begin();
  ASSERT_TRUE(gtm_->InvokeOnce(first, 1, "X0", 0,
                               Operation::Sub(Value::Int(1)))
                  .ok());
  ASSERT_TRUE(gtm_->CommitOnce(first, 2).ok());
  for (int i = 1; i < kCommits; ++i) {
    clock_.Advance(0.001);
    CommitOne(ObjectName(i % 4), Operation::Sub(Value::Int(1)));
  }
  // Each object's summary holds its one (member 0, add/sub) slot.
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(Obj(ObjectName(k)).committed.size(), 1u) << ObjectName(k);
  }
  EXPECT_EQ(gtm_->live_transaction_count(), 0u);
  EXPECT_EQ(gtm_->TransactionsInState(TxnState::kCommitted).size(),
            static_cast<size_t>(kCommits));
  EXPECT_TRUE(gtm_->TransactionsInState(TxnState::kActive).empty());
  // Finished transactions still answer: state, and a retried commit gets
  // its cached reply without re-executing.
  EXPECT_EQ(gtm_->StateOf(first).value(), TxnState::kCommitted);
  const int64_t dups = gtm_->metrics().counters().duplicates_suppressed;
  EXPECT_TRUE(gtm_->CommitOnce(first, 2).ok());
  EXPECT_EQ(gtm_->metrics().counters().duplicates_suppressed, dups + 1);
  EXPECT_EQ(gtm_->metrics().counters().committed, kCommits);
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

TEST_F(GtmBoundedTest, IdleSweepWhoseSleepsAbortLeavesNoLiveState) {
  // With sleeping disabled, every Sleep the idle sweep issues aborts its
  // transaction, which moves it out of the live map in mid-sweep.
  GtmOptions options;
  options.sleep_enabled = false;
  Gtm gtm(db_.get(), &clock_, options);
  ASSERT_TRUE(gtm.RegisterObject("X0", "obj", Value::Int(0), {1}).ok());
  std::vector<TxnId> idle;
  for (int i = 0; i < 3; ++i) {
    idle.push_back(gtm.Begin());
    ASSERT_TRUE(
        gtm.Invoke(idle.back(), "X0", 0, Operation::Sub(Value::Int(1))).ok());
  }
  clock_.Advance(100.0);
  EXPECT_TRUE(gtm.SleepIdleTransactions(10.0).empty());
  for (TxnId t : idle) EXPECT_EQ(gtm.StateOf(t).value(), TxnState::kAborted);
  EXPECT_EQ(gtm.metrics().counters().disconnect_aborts, 3);
  EXPECT_EQ(gtm.live_transaction_count(), 0u);
  EXPECT_TRUE(gtm.CheckInvariants().ok());
}

// --- replicated --------------------------------------------------------------------

TEST(GtmBoundedReplicaTest, BackupsPruneIdenticallyAndPromotedBackupAborts) {
  ManualClock clock;
  clock.Set(0.0);
  Rng ship_rng(0x5eedULL);
  replica::ReplicaOptions opts;
  opts.num_backups = 2;
  replica::ReplicatedGtm group(&clock, GtmOptions{}, opts, &ship_rng);
  ASSERT_TRUE(group.CreateTable("obj", ObjSchema()).ok());
  ASSERT_TRUE(
      group.InsertRow("obj", Row({Value::Int(0), Value::Int(kInitialQty)}))
          .ok());
  ASSERT_TRUE(group.RegisterObject("X", "obj", Value::Int(0), {1}).ok());

  auto commit_one = [&](const Operation& op) {
    const TxnId t = group.Begin();
    ASSERT_TRUE(group.Invoke(t, "X", 0, op).ok());
    ASSERT_TRUE(group.RequestCommit(t).ok());
  };
  // Sleeper-free warm-up.
  for (int i = 0; i < 100; ++i) {
    clock.Advance(0.001);
    commit_one(Operation::Sub(Value::Int(1)));
  }
  clock.Advance(0.001);
  const TxnId sleeper = group.Begin();
  ASSERT_TRUE(group.Invoke(sleeper, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(group.Sleep(sleeper).ok());
  for (int i = 0; i < kLongSleepCommits; ++i) {
    clock.Advance(0.001);
    commit_one(i == kLongSleepCommits / 2
                   ? Operation::Assign(Value::Int(kInitialQty))
                   : Operation::Sub(Value::Int(1)));
  }
  ASSERT_EQ(group.shipper()->Lag(), 0u);  // Sync shipping: all applied.

  const Gtm& primary = *group.primary_gtm();
  const ObjectState& pobj = *primary.GetObject("X").value();
  // Two slots, (member 0, add/sub) and (member 0, assign), on every node.
  EXPECT_EQ(pobj.committed.size(), 2u);
  const size_t finished =
      primary.TransactionsInState(TxnState::kCommitted).size() +
      primary.TransactionsInState(TxnState::kAborted).size();
  for (size_t i = 0; i < group.num_nodes(); ++i) {
    if (i == group.primary_index()) continue;
    const Gtm& backup = *group.node(i)->gtm();
    const ObjectState& bobj = *backup.GetObject("X").value();
    SCOPED_TRACE("node " + std::to_string(i));
    ExpectSameSummary(bobj, pobj);
    EXPECT_EQ(backup.live_transaction_count(),
              primary.live_transaction_count());
    EXPECT_EQ(backup.TransactionsInState(TxnState::kCommitted).size() +
                  backup.TransactionsInState(TxnState::kAborted).size(),
              finished);
    EXPECT_TRUE(backup.CheckInvariants().ok());
  }

  group.KillPrimary();
  ASSERT_TRUE(group.Promote().ok());
  clock.Advance(1.0);
  EXPECT_EQ(group.Awake(sleeper).code(), StatusCode::kAborted);
  EXPECT_EQ(group.StateOf(sleeper).value(), TxnState::kAborted);
  commit_one(Operation::Sub(Value::Int(1)));
  // The promoted primary and the surviving backup still agree slot by slot.
  const ObjectState& nobj = *group.primary_gtm()->GetObject("X").value();
  EXPECT_EQ(nobj.committed.size(), 2u);
  size_t compared = 0;
  for (size_t i = 0; i < group.num_nodes(); ++i) {
    if (i == group.primary_index() || !group.node(i)->alive()) continue;
    SCOPED_TRACE("node " + std::to_string(i));
    ExpectSameSummary(*group.node(i)->gtm()->GetObject("X").value(), nobj);
    ++compared;
  }
  EXPECT_EQ(compared, 1u);
  EXPECT_TRUE(group.primary_gtm()->CheckInvariants().ok());
}

// --- threaded service ---------------------------------------------------------------

TEST(GtmBoundedServiceTest, ConcurrentSweepsWalkOnlyLiveTransactions) {
  storage::Database db;
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(db.CreateTable("obj", ObjSchema()).ok());
  ASSERT_TRUE(
      db.InsertRow("obj", Row({Value::Int(0), Value::Int(kInitialQty)})).ok());
  GtmService service(&db);
  ASSERT_TRUE(
      service.gtm()->RegisterObject("X", "obj", Value::Int(0), {1}).ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 500;
  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    while (!done.load()) {
      // Generous limits: the sweeps walk the live map but act on nobody.
      service.SleepIdleTransactions(3600.0);
      service.AbortExpiredWaits(3600.0);
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        const TxnId t = service.Begin();
        ASSERT_TRUE(
            service.Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
        ASSERT_TRUE(service.Commit(t).ok());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true);
  sweeper.join();

  const Gtm& gtm = *service.gtm();
  EXPECT_EQ(gtm.live_transaction_count(), 0u);
  EXPECT_EQ(gtm.TransactionsInState(TxnState::kCommitted).size(),
            static_cast<size_t>(kClients * kPerClient));
  EXPECT_EQ(gtm.GetObject("X").value()->committed.size(), 1u);
  EXPECT_TRUE(gtm.CheckInvariants().ok());
}

}  // namespace
}  // namespace preserial::gtm
