// A committed or aborted transaction retires to a tombstone: the Gtm frees
// its record (copies, grants, wait and sleep stamps, statistics) and keeps
// only its terminal state and its cached *Once replies. Everything a retried
// request or a re-driving coordinator asks of a finished transaction still
// gets the answer it got before retirement, on a primary and on its backups,
// and a retired transaction holds a few bytes of heap.

#include <malloc.h>

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "gtm/gtm.h"
#include "replica/replica.h"
#include "storage/database.h"
#include "storage/wal.h"

namespace preserial::gtm {
namespace {

using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr int64_t kInitialQty = 1000000000;

Schema ObjSchema() {
  return Schema::Create(
             {
                 ColumnDef{"id", ValueType::kInt64, false},
                 ColumnDef{"qty", ValueType::kInt64, false},
             },
             0)
      .value();
}

// A log that keeps nothing, so that the heap a run holds is the Gtm's alone
// and not the in-memory WAL image's.
class DiscardingWal : public storage::WalStorage {
 public:
  Status Append(std::string_view) override { return Status::Ok(); }
  Status Sync() override { return Status::Ok(); }
  Result<std::string> ReadAll() const override { return std::string(); }
  Status Reset(std::string_view) override { return Status::Ok(); }
};

int64_t LiveHeapBytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<int64_t>(m.uordblks + m.hblkhd);
}

class GtmTombstoneTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(std::make_unique<storage::Database>()); }

  void Open(std::unique_ptr<storage::Database> db) {
    gtm_.reset();
    db_ = std::move(db);
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

  // Begins a transaction holding Sub(1) on member 0 of `object`.
  TxnId BeginHolding(const ObjectId& object) {
    const TxnId t = gtm_->Begin();
    EXPECT_TRUE(gtm_->Invoke(t, object, 0, Operation::Sub(Value::Int(1))).ok());
    return t;
  }

  int64_t Dups() const {
    return gtm_->metrics().counters().duplicates_suppressed;
  }

  std::unique_ptr<storage::Database> db_;
  ManualClock clock_;
  std::unique_ptr<Gtm> gtm_;
};

TEST_F(GtmTombstoneTest, RetiredTransactionsAnswerStateWithoutARecord) {
  constexpr int kCommits = 100000;
  std::vector<TxnId> committed;
  std::vector<TxnId> aborted;
  for (int i = 0; i < kCommits; ++i) {
    clock_.Advance(0.001);
    const TxnId t = BeginHolding(ObjectName(i % 4));
    ASSERT_TRUE(gtm_->RequestCommit(t).ok());
    committed.push_back(t);
    if (i % 1000 == 0) {
      const TxnId a = BeginHolding(ObjectName(i % 4));
      ASSERT_TRUE(gtm_->RequestAbort(a).ok());
      aborted.push_back(a);
    }
  }
  EXPECT_EQ(gtm_->live_transaction_count(), 0u);
  for (TxnId t : committed) {
    ASSERT_EQ(gtm_->GetTxn(t), nullptr) << "txn " << t;
    ASSERT_EQ(gtm_->StateOf(t).value(), TxnState::kCommitted) << "txn " << t;
  }
  for (TxnId t : aborted) {
    ASSERT_EQ(gtm_->GetTxn(t), nullptr) << "txn " << t;
    ASSERT_EQ(gtm_->StateOf(t).value(), TxnState::kAborted) << "txn " << t;
  }
  EXPECT_EQ(gtm_->TransactionsInState(TxnState::kCommitted), committed);
  EXPECT_EQ(gtm_->TransactionsInState(TxnState::kAborted), aborted);
  EXPECT_TRUE(gtm_->TransactionsInState(TxnState::kActive).empty());
  EXPECT_EQ(gtm_->StateOf(committed.back() + 1000).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(gtm_->metrics().counters().committed, kCommits);
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

TEST_F(GtmTombstoneTest, OnceRetriesAfterRetirementGetTheCachedReply) {
  // CommitOnce: its reply is cached after the commit retired the record.
  const TxnId c = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->InvokeOnce(c, 1, "X0", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(gtm_->CommitOnce(c, 2).ok());
  ASSERT_EQ(gtm_->GetTxn(c), nullptr);
  ASSERT_NE(gtm_->CachedReply(c, 2), nullptr);
  int64_t dups = Dups();
  EXPECT_TRUE(gtm_->CommitOnce(c, 2).ok());
  EXPECT_EQ(Dups(), ++dups);
  EXPECT_TRUE(
      gtm_->InvokeOnce(c, 1, "X0", 0, Operation::Sub(Value::Int(1))).ok());
  EXPECT_EQ(Dups(), ++dups);
  EXPECT_EQ(gtm_->metrics().counters().committed, 1);
  EXPECT_EQ(gtm_->PermanentValue("X0", 0).value(), Value::Int(kInitialQty - 1));

  // AbortOnce.
  const TxnId a = BeginHolding("X1");
  ASSERT_TRUE(gtm_->AbortOnce(a, 1).ok());
  EXPECT_TRUE(gtm_->AbortOnce(a, 1).ok());
  EXPECT_EQ(Dups(), ++dups);
  EXPECT_EQ(gtm_->metrics().counters().aborted, 1);

  // SleepOnce, cached while live and retried after an abort.
  const TxnId s = BeginHolding("X2");
  ASSERT_TRUE(gtm_->SleepOnce(s, 1).ok());
  ASSERT_TRUE(gtm_->AbortOnce(s, 2).ok());
  EXPECT_TRUE(gtm_->SleepOnce(s, 1).ok());
  EXPECT_EQ(Dups(), ++dups);
  EXPECT_EQ(gtm_->metrics().counters().sleeps, 1);
  EXPECT_EQ(gtm_->StateOf(s).value(), TxnState::kAborted);

  // An InvokeOnce that parked its client, retried after the waiter aborted.
  const TxnId holder = gtm_->Begin();
  ASSERT_TRUE(
      gtm_->Invoke(holder, "X3", 0, Operation::Assign(Value::Int(5))).ok());
  const TxnId w = gtm_->Begin();
  ASSERT_EQ(
      gtm_->InvokeOnce(w, 1, "X3", 0, Operation::Sub(Value::Int(1))).code(),
      StatusCode::kWaiting);
  ASSERT_TRUE(gtm_->RequestAbort(w).ok());
  const Status retried =
      gtm_->InvokeOnce(w, 1, "X3", 0, Operation::Sub(Value::Int(1)));
  EXPECT_EQ(retried.code(), StatusCode::kAborted);
  EXPECT_EQ(retried.message(), "transaction aborted while waiting");
  EXPECT_EQ(Dups(), ++dups);
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

TEST_F(GtmTombstoneTest, SleepOnceThatAbortsCachesItsReplyOnTheTombstone) {
  GtmOptions options;
  options.sleep_enabled = false;
  Gtm gtm(db_.get(), &clock_, options);
  ASSERT_TRUE(gtm.RegisterObject("X0", "obj", Value::Int(0), {1}).ok());
  const TxnId t = gtm.Begin();
  ASSERT_TRUE(gtm.Invoke(t, "X0", 0, Operation::Sub(Value::Int(1))).ok());
  const Status first = gtm.SleepOnce(t, 1);
  ASSERT_EQ(first.code(), StatusCode::kAborted);
  ASSERT_EQ(gtm.GetTxn(t), nullptr);
  const Status retried = gtm.SleepOnce(t, 1);
  EXPECT_EQ(retried.code(), first.code());
  EXPECT_EQ(retried.message(), first.message());
  EXPECT_EQ(gtm.metrics().counters().duplicates_suppressed, 1);
  EXPECT_EQ(gtm.metrics().counters().disconnect_aborts, 1);
}

TEST_F(GtmTombstoneTest, PreparedRedriveOnARetiredBranch) {
  const TxnId c = BeginHolding("X0");
  ASSERT_TRUE(gtm_->Prepare(c).ok());
  ASSERT_TRUE(gtm_->CommitPrepared(c).ok());
  ASSERT_EQ(gtm_->GetTxn(c), nullptr);
  EXPECT_TRUE(gtm_->CommitPrepared(c).ok());
  Status s = gtm_->AbortPrepared(c);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.message(),
            "AbortPrepared: txn " + std::to_string(c) + " already committed");

  const TxnId a = BeginHolding("X1");
  ASSERT_TRUE(gtm_->Prepare(a).ok());
  ASSERT_TRUE(gtm_->AbortPrepared(a).ok());
  ASSERT_EQ(gtm_->GetTxn(a), nullptr);
  EXPECT_TRUE(gtm_->AbortPrepared(a).ok());
  s = gtm_->CommitPrepared(a);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.message(), "CommitPrepared requires a Prepared transaction (txn " +
                             std::to_string(a) + " is Aborted)");

  const TxnId unknown = a + 1000;
  for (const Status& u :
       {gtm_->CommitPrepared(unknown), gtm_->AbortPrepared(unknown)}) {
    EXPECT_EQ(u.code(), StatusCode::kNotFound);
    EXPECT_EQ(u.message(), "unknown GTM txn " + std::to_string(unknown));
  }
  EXPECT_EQ(gtm_->metrics().counters().committed, 1);
  EXPECT_EQ(gtm_->metrics().counters().prepared_aborts, 1);
  EXPECT_TRUE(gtm_->CheckInvariants().ok());
}

// Heap held per retired transaction, over sleeper-free commits on a
// database whose log keeps nothing. Sanitizers replace malloc, so mallinfo2
// reads nothing useful there.
TEST_F(GtmTombstoneTest, RetiredTransactionHeapStaysWithinBudget) {
#ifdef PRESERIAL_SANITIZE
  GTEST_SKIP() << "mallinfo2 does not see a sanitizer's allocator";
#endif
  // Measured at 14.9 B: 12.3 B of capacity growth in the execution-time
  // histogram, which keeps every sample, and the tombstone bytes of the
  // transaction's id and its SST's. A ManagedTxn kept per finished
  // transaction held 508 B here; a std::map node per tombstone 48 B or more.
  constexpr double kBudgetBytes = 24.0;
  constexpr int kWarm = 1000;
  constexpr int kMeasured = 10000;
  Open(std::make_unique<storage::Database>(std::make_unique<DiscardingWal>()));
  auto commit_one = [&](int i) {
    clock_.Advance(0.001);
    const TxnId t = BeginHolding(ObjectName(i % 4));
    ASSERT_TRUE(gtm_->RequestCommit(t).ok());
  };
  for (int i = 0; i < kWarm; ++i) commit_one(i);
  const int64_t before = LiveHeapBytes();
  for (int i = 0; i < kMeasured; ++i) commit_one(i);
  const double per_txn =
      static_cast<double>(LiveHeapBytes() - before) / kMeasured;
  RecordProperty("heap_bytes_per_retired_txn", std::to_string(per_txn));
  EXPECT_EQ(gtm_->live_transaction_count(), 0u);
  EXPECT_LE(per_txn, kBudgetBytes);
}

// --- replicated --------------------------------------------------------------------

// Two Gtms hold the same tombstones: the same finished ids in each terminal
// state, and the same cached reply for every (txn, seq) in `seqs` of `txns`.
void ExpectSameTombstones(const Gtm& a, const Gtm& b,
                          const std::vector<TxnId>& txns, uint64_t seqs) {
  EXPECT_EQ(a.TransactionsInState(TxnState::kCommitted),
            b.TransactionsInState(TxnState::kCommitted));
  EXPECT_EQ(a.TransactionsInState(TxnState::kAborted),
            b.TransactionsInState(TxnState::kAborted));
  for (TxnId t : txns) {
    SCOPED_TRACE("txn " + std::to_string(t));
    ASSERT_TRUE(a.StateOf(t).ok());
    ASSERT_TRUE(b.StateOf(t).ok());
    EXPECT_EQ(a.StateOf(t).value(), b.StateOf(t).value());
    EXPECT_EQ(a.GetTxn(t), nullptr);
    EXPECT_EQ(b.GetTxn(t), nullptr);
    for (uint64_t seq = 1; seq <= seqs; ++seq) {
      const Status* ra = a.CachedReply(t, seq);
      const Status* rb = b.CachedReply(t, seq);
      ASSERT_EQ(ra == nullptr, rb == nullptr) << "seq " << seq;
      if (ra == nullptr) continue;
      EXPECT_EQ(ra->code(), rb->code()) << "seq " << seq;
      EXPECT_EQ(ra->message(), rb->message()) << "seq " << seq;
    }
  }
}

TEST(GtmTombstoneReplicaTest, BackupTombstonesEqualThePrimarys) {
  ManualClock clock;
  clock.Set(0.0);
  Rng ship_rng(0x70bULL);
  replica::ReplicaOptions opts;
  opts.num_backups = 2;
  replica::ReplicatedGtm group(&clock, GtmOptions{}, opts, &ship_rng);
  ASSERT_TRUE(group.CreateTable("obj", ObjSchema()).ok());
  ASSERT_TRUE(
      group.InsertRow("obj", Row({Value::Int(0), Value::Int(kInitialQty)}))
          .ok());
  ASSERT_TRUE(group.RegisterObject("X", "obj", Value::Int(0), {1}).ok());

  constexpr uint64_t kSeqs = 4;
  std::vector<TxnId> finished;
  // Commits, aborts, sleep-and-wake commits and retried commits, through
  // the idempotent endpoints.
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      clock.Advance(0.001);
      const TxnId t = group.Begin();
      ASSERT_TRUE(
          group.InvokeOnce(t, 1, "X", 0, Operation::Sub(Value::Int(1))).ok());
      switch (i % 4) {
        case 0:
          ASSERT_TRUE(group.CommitOnce(t, 2).ok());
          break;
        case 1:
          ASSERT_TRUE(group.AbortOnce(t, 2).ok());
          break;
        case 2:
          ASSERT_TRUE(group.SleepOnce(t, 2).ok());
          clock.Advance(0.001);
          ASSERT_TRUE(group.AwakeOnce(t, 3).ok());
          ASSERT_TRUE(group.CommitOnce(t, 4).ok());
          break;
        case 3:
          ASSERT_TRUE(group.CommitOnce(t, 2).ok());
          ASSERT_TRUE(group.CommitOnce(t, 2).ok());
          break;
      }
      finished.push_back(t);
    }
  };
  run(200);
  ASSERT_EQ(group.shipper()->Lag(), 0u);  // Sync shipping: all applied.

  const Gtm& primary = *group.primary_gtm();
  ASSERT_EQ(primary.TransactionsInState(TxnState::kCommitted).size(), 150u);
  for (size_t i = 0; i < group.num_nodes(); ++i) {
    if (i == group.primary_index()) continue;
    SCOPED_TRACE("backup " + std::to_string(i));
    ExpectSameTombstones(primary, *group.node(i)->gtm(), finished, kSeqs);
  }

  const size_t old_primary = group.primary_index();
  group.KillPrimary();
  ASSERT_TRUE(group.Promote().ok());
  {
    SCOPED_TRACE("promoted");
    ExpectSameTombstones(*group.node(old_primary)->gtm(),
                         *group.primary_gtm(), finished, kSeqs);
  }
  run(40);
  size_t compared = 0;
  for (size_t i = 0; i < group.num_nodes(); ++i) {
    if (i == group.primary_index() || !group.node(i)->alive()) continue;
    SCOPED_TRACE("surviving backup " + std::to_string(i));
    ExpectSameTombstones(*group.primary_gtm(), *group.node(i)->gtm(),
                         finished, kSeqs);
    ++compared;
  }
  EXPECT_EQ(compared, 1u);
  EXPECT_TRUE(group.primary_gtm()->CheckInvariants().ok());
}

}  // namespace
}  // namespace preserial::gtm
