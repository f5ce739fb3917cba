// Multi-step long running transactions (the paper's package tours) through
// both engines' simulated sessions, plus the tour-workload experiment
// wrappers.

#include "mobile/multi_session.h"

#include <memory>

#include <gtest/gtest.h>

#include "storage/database.h"
#include "workload/runner.h"
#include "workload/travel_agency.h"

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

Value Qty(storage::Database* db, int64_t id) {
  return db->GetTable("t").value()->GetColumnByKey(Value::Int(id), 1).value();
}

TourStep Step(const gtm::ObjectId& object, Duration think) {
  TourStep s;
  s.object = object;
  s.op = semantics::Operation::Sub(Value::Int(1));
  s.think_time = think;
  return s;
}

TEST(MultiGtmSessionTest, BooksEveryStopAndCommits) {
  auto db = MakeDb(3, 10);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(gtm.RegisterObject("o" + std::to_string(i), "t",
                                   Value::Int(i), {1})
                    .ok());
  }
  GtmRunner runner(&gtm, &simulator);

  MultiTxnPlan plan;
  plan.steps = {Step("o0", 1.0), Step("o1", 1.0), Step("o2", 1.0)};
  plan.final_think = 2.0;
  runner.AddMultiSession(plan, 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  // Steps are instantaneous; latency = 3 thinks + final think.
  EXPECT_DOUBLE_EQ(stats.latency_committed.mean(), 5.0);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Qty(db.get(), i), Value::Int(9)) << i;
  }
}

TEST(MultiGtmSessionTest, QueuedStepResumesOnGrant) {
  auto db = MakeDb(1, 10);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("o0", "t", Value::Int(0), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  // An assignment holder blocks the tour's first step for 4 s.
  TxnPlan holder;
  holder.object = "o0";
  holder.op = semantics::Operation::Assign(Value::Int(50));
  holder.work_time = 4.0;
  runner.AddSession(holder, 0.0);

  MultiTxnPlan tour;
  tour.steps = {Step("o0", 1.0)};
  tour.final_think = 0.0;
  runner.AddMultiSession(tour, 1.0);

  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 2);
  // Tour: queued from t=1 to t=4, step granted, think 1 -> commit at 5.
  EXPECT_EQ(Qty(db.get(), 0), Value::Int(49));
}

TEST(MultiGtmSessionTest, DisconnectionMidTourResumesAndCommits) {
  auto db = MakeDb(2, 10);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("o0", "t", Value::Int(0), {1}).ok());
  ASSERT_TRUE(gtm.RegisterObject("o1", "t", Value::Int(1), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  MultiTxnPlan tour;
  tour.steps = {Step("o0", 2.0), Step("o1", 2.0)};
  tour.final_think = 1.0;
  tour.disconnect.disconnects = true;
  tour.disconnect.offset = 1.0;   // Mid-think after the first booking.
  tour.disconnect.duration = 10.0;
  runner.AddMultiSession(tour, 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(stats.disconnected, 1);
  EXPECT_EQ(Qty(db.get(), 0), Value::Int(9));
  EXPECT_EQ(Qty(db.get(), 1), Value::Int(9));
  // The awake happened at t=11; remaining timeline ran from there.
  EXPECT_GE(stats.latency_committed.mean(), 11.0);
}

TEST(MultiGtmSessionTest, SleeperAbortedByIncompatibleCommitMidTour) {
  auto db = MakeDb(2, 10);
  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  ASSERT_TRUE(gtm.RegisterObject("o0", "t", Value::Int(0), {1}).ok());
  ASSERT_TRUE(gtm.RegisterObject("o1", "t", Value::Int(1), {1}).ok());
  GtmRunner runner(&gtm, &simulator);

  MultiTxnPlan tour;
  tour.steps = {Step("o0", 2.0), Step("o1", 2.0)};
  tour.disconnect.disconnects = true;
  tour.disconnect.offset = 1.0;
  tour.disconnect.duration = 10.0;
  runner.AddMultiSession(tour, 0.0);

  // An admin assignment on the already-booked stop commits during the sleep.
  TxnPlan admin;
  admin.object = "o0";
  admin.op = semantics::Operation::Assign(Value::Int(99));
  admin.work_time = 1.0;
  runner.AddSession(admin, 3.0);

  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.aborts_by_cause.count(AbortCause::kAwakeConflict), 1u);
  // The tour's first booking rolled back: only the admin's write remains.
  EXPECT_EQ(Qty(db.get(), 0), Value::Int(99));
  EXPECT_EQ(Qty(db.get(), 1), Value::Int(10));
}

TEST(MultiTwoPlSessionTest, ToursSerializeOnSharedStops) {
  auto db = MakeDb(2, 10);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  auto make_plan = [](Duration think) {
    MultiTwoPlPlan plan;
    for (int64_t i = 0; i < 2; ++i) {
      TwoPlTourStep step;
      step.table = "t";
      step.key = Value::Int(i);
      step.column = 1;
      step.is_subtract = true;
      step.think_time = think;
      plan.steps.push_back(step);
    }
    plan.final_think = 1.0;
    return plan;
  };
  runner.AddMultiSession(make_plan(2.0), 0.0);
  runner.AddMultiSession(make_plan(2.0), 1.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 2);
  EXPECT_EQ(Qty(db.get(), 0), Value::Int(8));
  EXPECT_EQ(Qty(db.get(), 1), Value::Int(8));
  // Tour 1 holds the lock on o0 from t=0 to its commit at t=5; tour 2
  // arrives at t=1 and can only finish after.
  EXPECT_GT(stats.latency_all.Percentile(1.0), 5.0);
}

TEST(MultiTwoPlSessionTest, DisconnectedHolderKilledByIdleTimeout) {
  auto db = MakeDb(1, 10);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  MultiTwoPlPlan plan;
  TwoPlTourStep step;
  step.table = "t";
  step.key = Value::Int(0);
  step.column = 1;
  step.is_subtract = true;
  step.think_time = 5.0;
  plan.steps.push_back(step);
  plan.disconnect.disconnects = true;
  plan.disconnect.offset = 1.0;
  plan.disconnect.duration = 100.0;
  plan.idle_timeout = 10.0;
  runner.AddMultiSession(plan, 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.aborted, 1);
  EXPECT_EQ(stats.aborts_by_cause.at(AbortCause::kDisconnectTimeout), 1);
  EXPECT_EQ(Qty(db.get(), 0), Value::Int(10));  // Undo restored the seat.
}

TEST(MultiTwoPlSessionTest, ReconnectResumesPendingProgress) {
  auto db = MakeDb(2, 10);
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  MultiTwoPlPlan plan;
  for (int64_t i = 0; i < 2; ++i) {
    TwoPlTourStep step;
    step.table = "t";
    step.key = Value::Int(i);
    step.column = 1;
    step.is_subtract = true;
    step.think_time = 2.0;
    plan.steps.push_back(step);
  }
  plan.final_think = 1.0;
  plan.disconnect.disconnects = true;
  plan.disconnect.offset = 1.0;  // Mid-think after step 0.
  plan.disconnect.duration = 8.0;  // Comes back; generous idle timeout.
  runner.AddMultiSession(plan, 0.0);
  const RunStats& stats = runner.Run();
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(Qty(db.get(), 0), Value::Int(9));
  EXPECT_EQ(Qty(db.get(), 1), Value::Int(9));
  EXPECT_GE(stats.latency_committed.mean(), 9.0);
}

}  // namespace
}  // namespace preserial::mobile

namespace preserial::workload {
namespace {

TourWorkloadSpec AmpleInventorySpec() {
  TourWorkloadSpec spec;
  // Plenty of everything: isolate concurrency effects from stock-outs
  // (inventory exhaustion is exercised separately below).
  spec.agency.seats_per_flight = 1000;
  spec.agency.rooms_per_hotel = 1000;
  spec.agency.tickets_per_museum = 1000;
  spec.agency.cars_per_depot = 1000;
  return spec;
}

TEST(TourExperimentTest, GtmToursShareAndCommit) {
  TourWorkloadSpec spec = AmpleInventorySpec();
  spec.num_tours = 100;
  spec.interarrival = 0.5;
  spec.think_time = 1.0;
  spec.final_think = 1.0;
  spec.beta = 0.0;
  spec.seed = 5;
  const GtmExperimentResult r = RunGtmTourExperiment(spec);
  EXPECT_EQ(r.run.committed, 100);
  EXPECT_EQ(r.run.aborted, 0);
  // All bookings are compatible subtractions.
  EXPECT_EQ(r.snapshot.counters.waits, 0);
  // Latency is exactly the tour's own timeline.
  EXPECT_DOUBLE_EQ(r.run.AvgLatency(), 5.0);
}

TEST(TourExperimentTest, TwoPlToursPayLockWaits) {
  TourWorkloadSpec spec = AmpleInventorySpec();
  spec.num_tours = 100;
  spec.interarrival = 0.5;
  spec.think_time = 1.0;
  spec.final_think = 1.0;
  spec.beta = 0.0;
  spec.seed = 5;
  const GtmExperimentResult gtm_r = RunGtmTourExperiment(spec);
  const BaselineResult tpl_r = RunTwoPlTourExperiment(spec);
  EXPECT_GT(tpl_r.two_pl.lock_waits, 0);
  EXPECT_GT(tpl_r.run.AvgLatency(), gtm_r.run.AvgLatency());
  EXPECT_EQ(tpl_r.run.committed + tpl_r.run.aborted, 100);
}

TEST(TourExperimentTest, DisconnectionsDivergeTheEngines) {
  TourWorkloadSpec spec = AmpleInventorySpec();
  spec.num_tours = 150;
  spec.beta = 0.3;
  spec.disconnect_mean = 15.0;
  spec.seed = 9;
  const GtmExperimentResult gtm_r = RunGtmTourExperiment(spec);
  const BaselineResult tpl_r =
      RunTwoPlTourExperiment(spec, /*lock_wait_timeout=*/20.0,
                             /*idle_timeout=*/8.0);
  // All GTM tours survive (bookings are mutually compatible).
  EXPECT_EQ(gtm_r.run.aborted, 0);
  EXPECT_GT(tpl_r.run.aborted, 0);
}

TEST(TourExperimentTest, ScarceInventoryAbortsAtSst) {
  TourWorkloadSpec spec;  // Default stock: 6 depots x 20 cars = 120 cars.
  spec.num_tours = 200;   // More tours than cars.
  spec.beta = 0.0;
  spec.seed = 3;
  const GtmExperimentResult r = RunGtmTourExperiment(spec);
  // Nobody oversells: committed tours cannot exceed the car stock, and the
  // rest die on the CHECK constraint at SST time.
  EXPECT_LE(r.run.committed,
            static_cast<int64_t>(spec.agency.num_cars) *
                spec.agency.cars_per_depot);
  EXPECT_GT(r.run.aborted, 0);
  EXPECT_EQ(r.run.committed + r.run.aborted, 200);
}

TEST(TourExperimentTest, DeterministicForSeed) {
  TourWorkloadSpec spec = AmpleInventorySpec();
  spec.num_tours = 80;
  spec.beta = 0.2;
  const GtmExperimentResult a = RunGtmTourExperiment(spec);
  const GtmExperimentResult b = RunGtmTourExperiment(spec);
  EXPECT_EQ(a.run.committed, b.run.committed);
  EXPECT_DOUBLE_EQ(a.run.AvgLatency(), b.run.AvgLatency());
}

}  // namespace
}  // namespace preserial::workload
