// The simulated mobile clients over a reliable transport: one-step GTM and
// strict-2PL transactions, and the disconnection reading both share (the
// link drops `offset` after arrival; whatever falls due while away runs at
// reconnection).

#include "mobile/session.h"

#include <memory>
#include <vector>

#include "mobile/multi_session.h"
#include "mobile/network.h"

#include <gtest/gtest.h>

#include "storage/database.h"
#include "workload/runner.h"

namespace preserial::mobile {
namespace {

using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;
using workload::GtmRunner;
using workload::RunStats;
using workload::TwoPlRunner;

std::unique_ptr<storage::Database> MakeDb(int64_t rows, int64_t qty) {
  auto db = std::make_unique<storage::Database>();
  EXPECT_TRUE(db->Open().ok());
  Schema schema = Schema::Create(
                      {
                          ColumnDef{"id", ValueType::kInt64, false},
                          ColumnDef{"qty", ValueType::kInt64, false},
                      },
                      0)
                      .value();
  EXPECT_TRUE(db->CreateTable("t", std::move(schema)).ok());
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(db->InsertRow("t", Row({Value::Int(i), Value::Int(qty)})).ok());
  }
  return db;
}

// A one-step strict-2PL transaction on row `key` of column 1 of "t":
// subtract one (read-for-update, then write), then `work` before the commit.
MultiTwoPlPlan TwoPlOneStep(int64_t key, Duration work) {
  TwoPlTourStep step;
  step.table = "t";
  step.key = Value::Int(key);
  step.column = 1;
  step.is_subtract = true;
  MultiTwoPlPlan plan;
  plan.steps.push_back(std::move(step));
  plan.final_think = work;
  return plan;
}

TEST(GtmSessionTest, CommitsAfterWorkTime) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  TxnPlan plan;
  plan.object = "X";
  plan.op = semantics::Operation::Sub(Value::Int(1));
  plan.work_time = 2.5;
  runner.AddSession(plan, /*arrival=*/1.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 2.5);
  EXPECT_EQ(db->GetTable("t")
                .value()
                ->GetColumnByKey(Value::Int(0), 1)
                .value(),
            Value::Int(99));
}

TEST(GtmSessionTest, WaiterLatencyIncludesQueueTime) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  TxnPlan holder;
  holder.object = "X";
  holder.op = semantics::Operation::Assign(Value::Int(7));
  holder.work_time = 4.0;
  runner.AddSession(holder, 0.0);

  TxnPlan waiter;
  waiter.object = "X";
  waiter.op = semantics::Operation::Assign(Value::Int(8));
  waiter.work_time = 1.0;
  runner.AddSession(waiter, 1.0);

  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 2);
  // Holder: 4.0. Waiter: queued 3.0 (until t=4) + 1.0 work = 4.0.
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 4.0);
}

TEST(GtmSessionTest, DisconnectionStretchesLatency) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  TxnPlan plan;
  plan.object = "X";
  plan.op = semantics::Operation::Sub(Value::Int(1));
  plan.work_time = 2.0;
  plan.disconnect.disconnects = true;
  plan.disconnect.offset = 1.0;
  plan.disconnect.duration = 10.0;
  runner.AddSession(plan, 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(stats.disconnected, 1);
  // Away over [1, 11]: the 2 s of work end at t=2 while away, so the commit
  // falls due then and runs at Awake. 1 s + 10 s away.
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 11.0);
}

TEST(GtmSessionTest, DisconnectionWhileQueuedSleepsInQueueAndAdmitsAtAwake) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  // A holder driven directly: it assigns at t=0 and aborts at t=4, so it
  // leaves no commit that Algorithm 9 would hold against a sleeper.
  const TxnId holder = gtm.Begin();
  ASSERT_TRUE(
      gtm.Invoke(holder, "X", 0, semantics::Operation::Assign(Value::Int(7)))
          .ok());
  simulator.At(4.0, [&] {
    ASSERT_TRUE(gtm.RequestAbort(holder).ok());
    runner.DispatchEvents();
  });

  // Queued behind the holder from t=1; the link drops at t=2.5, while the
  // step still waits, and comes back at t=7.5.
  TxnPlan waiter;
  waiter.object = "X";
  waiter.op = semantics::Operation::Assign(Value::Int(8));
  waiter.work_time = 1.0;
  waiter.disconnect.disconnects = true;
  waiter.disconnect.offset = 1.5;
  waiter.disconnect.duration = 5.0;
  runner.AddSession(waiter, 1.0);

  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(gtm.metrics().counters().waits, 1);
  EXPECT_EQ(gtm.metrics().counters().sleeps, 1);
  EXPECT_EQ(gtm.metrics().counters().awake_aborts, 0);
  // The abort at t=4 skips the sleeping waiter (Alg 2 excludes X_sleeping);
  // Awake at t=7.5 admits it (Alg 9 case 1), and its 1 s of work ends the
  // transaction at t=8.5.
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 7.5);
  EXPECT_EQ(db->GetTable("t")
                .value()
                ->GetColumnByKey(Value::Int(0), 1)
                .value(),
            Value::Int(8));
}

TEST(GtmSessionTest, SleeperKilledByIncompatibleCommitRecordsCause) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  TxnPlan sleeper;
  sleeper.object = "X";
  sleeper.op = semantics::Operation::Sub(Value::Int(1));
  sleeper.work_time = 2.0;
  sleeper.disconnect.disconnects = true;
  sleeper.disconnect.offset = 1.0;
  sleeper.disconnect.duration = 10.0;
  runner.AddSession(sleeper, 0.0);

  TxnPlan admin;  // Lands during the sleep, commits fast.
  admin.object = "X";
  admin.op = semantics::Operation::Assign(Value::Int(5));
  admin.work_time = 0.5;
  runner.AddSession(admin, 2.0);

  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(stats.aborted, 1);
  EXPECT_EQ(stats.aborts_by_cause.at(AbortCause::kAwakeConflict), 1);
  EXPECT_EQ(stats.disconnected_aborted, 1);
  EXPECT_DOUBLE_EQ(stats.DisconnectedAbortPercent(), 100.0);
}

TEST(TwoPlSessionTest, SubtractionReadsThenWrites) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  runner.AddMultiSession(TwoPlOneStep(0, 1.0), 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(db->GetTable("t")
                .value()
                ->GetColumnByKey(Value::Int(0), 1)
                .value(),
            Value::Int(99));
}

TEST(TwoPlSessionTest, ConflictingSessionsSerialize) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  for (int i = 0; i < 2; ++i) {
    runner.AddMultiSession(TwoPlOneStep(0, 2.0),
                           static_cast<double>(i));  // t=0 and t=1.
  }
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 2);
  // First: latency 2. Second: waits until t=2, then 2 work -> finish t=4,
  // latency 3.
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 2.5);
  EXPECT_EQ(db->GetTable("t")
                .value()
                ->GetColumnByKey(Value::Int(0), 1)
                .value(),
            Value::Int(98));
}

TEST(TwoPlSessionTest, DisconnectedHolderBlocksUntilIdleTimeout) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  // Holder disconnects for 100 s; the system kills it after 10 s idle.
  MultiTwoPlPlan holder = TwoPlOneStep(0, 2.0);
  holder.disconnect.disconnects = true;
  holder.disconnect.offset = 0.5;
  holder.disconnect.duration = 100.0;
  holder.idle_timeout = 10.0;
  runner.AddMultiSession(holder, 0.0);

  // A waiter behind it with a generous lock-wait timeout.
  MultiTwoPlPlan waiter = TwoPlOneStep(0, 1.0);
  waiter.lock_wait_timeout = 60.0;
  runner.AddMultiSession(waiter, 1.0);

  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(stats.aborted, 1);
  EXPECT_EQ(stats.aborts_by_cause.at(AbortCause::kDisconnectTimeout), 1);
  // The waiter got the lock at t = 10.5 (holder killed) and took 1 s.
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 10.5);
}

TEST(TwoPlSessionTest, LockWaitTimeoutAbortsWaiter) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  // Disconnected for 1000 s, never killed (no idle timeout).
  MultiTwoPlPlan holder = TwoPlOneStep(0, 1.0);
  holder.disconnect.disconnects = true;
  holder.disconnect.offset = 0.1;
  holder.disconnect.duration = 1000.0;
  runner.AddMultiSession(holder, 0.0);

  MultiTwoPlPlan waiter = TwoPlOneStep(0, 1.0);
  waiter.lock_wait_timeout = 5.0;
  runner.AddMultiSession(waiter, 0.5);

  runner.simulator()->RunUntil(50.0);
  const RunStats& stats = runner.stats();
  EXPECT_EQ(stats.aborted, 1);
  EXPECT_EQ(stats.aborts_by_cause.at(AbortCause::kLockWaitTimeout), 1);
}

TEST(TwoPlSessionTest, AssignmentWritesDirectly) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  MultiTwoPlPlan plan = TwoPlOneStep(0, 1.0);
  plan.steps[0].is_subtract = false;
  plan.steps[0].assign_value = Value::Int(77);
  runner.AddMultiSession(plan, 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(db->GetTable("t")
                .value()
                ->GetColumnByKey(Value::Int(0), 1)
                .value(),
            Value::Int(77));
}

TEST(GtmSessionTest, NetworkDelaysStretchLatency) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  TxnPlan plan;
  plan.object = "X";
  plan.op = semantics::Operation::Sub(Value::Int(1));
  plan.work_time = 1.0;
  plan.invoke_delay = 0.5;
  plan.commit_delay = 0.25;
  runner.AddSession(plan, 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 1.75);
}

TEST(GtmSessionTest, TagsFlowIntoPerClassStats) {
  auto db = MakeDb(2, 100);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());
  ASSERT_TRUE(gtm.RegisterObject("Y", "t", Value::Int(1), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  TxnPlan fast;
  fast.object = "X";
  fast.op = semantics::Operation::Sub(Value::Int(1));
  fast.work_time = 1.0;
  fast.tag = 7;
  runner.AddSession(fast, 0.0);
  TxnPlan slow;
  slow.object = "Y";
  slow.op = semantics::Operation::Sub(Value::Int(1));
  slow.work_time = 3.0;
  slow.tag = 9;
  runner.AddSession(slow, 0.0);

  const RunStats& stats = runner.Run();
  ASSERT_EQ(stats.latency_by_tag.count(7), 1u);
  ASSERT_EQ(stats.latency_by_tag.count(9), 1u);
  EXPECT_DOUBLE_EQ(stats.latency_by_tag.at(7).mean(), 1.0);
  EXPECT_DOUBLE_EQ(stats.latency_by_tag.at(9).mean(), 3.0);
}

TEST(TwoPlSessionTest, NetworkDelaysApplyToBothHops) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  MultiTwoPlPlan plan = TwoPlOneStep(0, 1.0);
  plan.steps[0].invoke_delay = 0.5;
  plan.commit_delay = 0.25;
  runner.AddMultiSession(plan, 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 1.75);
}

TEST(TwoPlSessionTest, HolderReconnectingAfterItsWorkCommitsAtReconnection) {
  auto db = MakeDb(1, 100);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  // Locks at t=0, away over [1, 11]; its 2 s of work end at t=2 while
  // away, so the commit falls due then and runs at reconnection.
  MultiTwoPlPlan holder = TwoPlOneStep(0, 2.0);
  holder.disconnect.disconnects = true;
  holder.disconnect.offset = 1.0;
  holder.disconnect.duration = 10.0;
  runner.AddMultiSession(holder, 0.0);

  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(stats.disconnected, 1);
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 11.0);
  EXPECT_EQ(db->GetTable("t")
                .value()
                ->GetColumnByKey(Value::Int(0), 1)
                .value(),
            Value::Int(99));
}

TEST(RunStatsTest, MakespanAndThroughput) {
  auto db = MakeDb(2, 100);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());
  ASSERT_TRUE(gtm.RegisterObject("Y", "t", Value::Int(1), {1}).ok());
  GtmRunner runner(&gtm, &simulator);
  for (int i = 0; i < 2; ++i) {
    TxnPlan plan;
    plan.object = i == 0 ? "X" : "Y";
    plan.op = semantics::Operation::Sub(Value::Int(1));
    plan.work_time = 2.0;
    runner.AddSession(plan, static_cast<double>(i));  // t=0 and t=1.
  }
  const RunStats& stats = runner.Run();
  // First arrival t=0, last finish t=3.
  EXPECT_DOUBLE_EQ(stats.Makespan(), 3.0);
  EXPECT_NEAR(stats.Throughput(), 2.0 / 3.0, 1e-12);
}

TEST(NetworkModelTest, DefaultIsZeroLatency) {
  Rng rng(1);
  NetworkModel net;
  EXPECT_DOUBLE_EQ(net.SampleDelay(rng), 0.0);
  EXPECT_DOUBLE_EQ(net.SampleRtt(rng), 0.0);
  EXPECT_DOUBLE_EQ(net.mean_delay(), 0.0);
}

TEST(NetworkModelTest, FixedAndSampledDelays) {
  Rng rng(2);
  NetworkModel fixed(0.25);
  EXPECT_DOUBLE_EQ(fixed.SampleDelay(rng), 0.25);
  EXPECT_DOUBLE_EQ(fixed.SampleRtt(rng), 0.5);
  EXPECT_DOUBLE_EQ(fixed.mean_delay(), 0.25);

  NetworkModel sampled(std::make_unique<sim::ExponentialDist>(0.5));
  EXPECT_DOUBLE_EQ(sampled.mean_delay(), 0.5);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += sampled.SampleDelay(rng);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

TEST(DisconnectModelTest, RespectsProbabilityAndSpan) {
  Rng rng(3);
  DisconnectModel model =
      DisconnectModel::WithExponentialDuration(0.25, 4.0);
  int hits = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    DisconnectPlan plan = model.Sample(rng, 2.0);
    if (plan.disconnects) {
      ++hits;
      EXPECT_GE(plan.offset, 0.0);
      EXPECT_LT(plan.offset, 2.0);
      EXPECT_GE(plan.duration, 0.0);
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.25, 0.02);
}

}  // namespace
}  // namespace preserial::mobile
