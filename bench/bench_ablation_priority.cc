// Ablation: transaction priorities (paper Sec. VII alternative to the
// lock-deny guard). A hot object carries a long queue of mutually
// incompatible assignments (they serialize, so the wait queue grows);
// admin transactions at elevated priority jump that queue. We compare the
// admins' latency with and without the boost.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "gtm/gtm.h"
#include "storage/database.h"
#include "workload/gtm_experiment.h"
#include "workload/runner.h"

namespace {

using namespace preserial;
using storage::Row;
using storage::Value;

struct RunOutcome {
  Histogram admin_latency;
  Histogram booking_latency;
};

// Runs the hot-object workload with admin sessions at `admin_priority`.
RunOutcome RunWith(int admin_priority, uint64_t seed) {
  auto db = std::make_unique<storage::Database>();
  PRESERIAL_CHECK(db->Open().ok());
  Result<storage::Schema> schema = storage::Schema::Create(
      {
          storage::ColumnDef{"id", storage::ValueType::kInt64, false},
          storage::ColumnDef{"qty", storage::ValueType::kInt64, false},
      },
      0);
  PRESERIAL_CHECK(db->CreateTable("t", std::move(schema).value()).ok());
  PRESERIAL_CHECK(
      db->InsertRow("t", Row({Value::Int(0), Value::Int(1000000)})).ok());

  sim::Simulator simulator;
  gtm::Gtm gtm(db.get(), simulator.clock());
  PRESERIAL_CHECK(gtm.RegisterObject("X", "t", Value::Int(0), {1}).ok());

  // Custom driver: we need Begin(priority), which the stock GtmRunner's
  // sessions do not expose, so the admin transactions are driven by hand
  // while bookings flow through the runner.
  workload::GtmRunner runner(&gtm, &simulator);
  Rng rng(seed);
  constexpr int kUpdates = 150;
  constexpr double kWork = 1.0;
  for (int i = 0; i < kUpdates; ++i) {
    mobile::TxnPlan plan;
    // Move-assigned: gcc 12 misreads a literal assignment here as an
    // overlapping copy (-Wrestrict) under -fsanitize=undefined.
    plan.object = gtm::ObjectId("X");
    plan.op = semantics::Operation::Assign(
        Value::Int(rng.NextInt(1, 1000000)));
    plan.work_time = kWork;
    plan.tag = 0;
    runner.AddSession(std::move(plan), i * 0.5);
  }

  RunOutcome outcome;
  // Five admin assignments arrive mid-storm. They drive the Gtm directly,
  // so every interaction ends with runner.DispatchEvents() to hand grants
  // to the waiting update sessions.
  for (int i = 0; i < 5; ++i) {
    const double arrival = 20.0 + i * 25.0;
    simulator.At(arrival, [&gtm, &simulator, &runner, &outcome,
                           admin_priority, arrival] {
      const TxnId admin = gtm.Begin(admin_priority);
      const Status s = gtm.Invoke(
          admin, "X", 0, semantics::Operation::Assign(Value::Int(500000)));
      auto commit = [&gtm, &runner, &outcome, admin, arrival, &simulator] {
        (void)gtm.RequestCommit(admin);
        outcome.admin_latency.Add(simulator.Now() - arrival);
        runner.DispatchEvents();
      };
      if (s.ok()) {
        simulator.After(0.5, commit);
      } else if (s.code() == StatusCode::kWaiting) {
        // Poll for our admission (the runner drains shared events, so the
        // admin watches its own state instead).
        auto poll = std::make_shared<std::function<void()>>();
        *poll = [&gtm, &simulator, admin, commit, poll] {
          Result<gtm::TxnState> st = gtm.StateOf(admin);
          if (st.ok() && st.value() == gtm::TxnState::kActive) {
            simulator.After(0.5, commit);
          } else if (st.ok() && st.value() == gtm::TxnState::kWaiting) {
            simulator.After(0.5, *poll);
          }
        };
        simulator.After(0.5, *poll);
      } else {
        (void)gtm.RequestAbort(admin);
        runner.DispatchEvents();
      }
      runner.DispatchEvents();
    });
  }

  const workload::RunStats& stats = runner.Run();
  outcome.booking_latency = stats.latency_committed;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace preserial;
  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  bench::Banner(
      "Ablation: admin priority on a hot object (5 urgent assignments vs "
      "150 serialized updates)");
  bench::TablePrinter table({"admin prio", "admin mean", "admin max",
                             "update mean", "update p99"},
                            14);
  table.PrintHeader();
  for (int priority : {0, 10}) {
    const RunOutcome r = RunWith(priority, 42);
    table.PrintRow({bench::Num(priority, 0),
                    bench::Num(r.admin_latency.mean(), 2),
                    bench::Num(r.admin_latency.Percentile(1.0), 2),
                    bench::Num(r.booking_latency.mean(), 2),
                    bench::Num(r.booking_latency.p99(), 2)});
  }
  std::puts(
      "\nshape check: priority moves the admins to the head of every wait "
      "queue, cutting their latency at modest cost to the booking tail.");

  // This bench drives the Gtm by hand, so the traced run reuses the stock
  // experiment on a comparable hot-object contention profile.
  workload::GtmExperimentSpec spec;
  spec.num_txns = 400;
  spec.num_objects = 1;
  spec.alpha = 0.3;  // Mostly serialized assignments — deep wait queues.
  spec.beta = 0.0;
  spec.interarrival = 0.5;
  spec.work_time = 2.0;
  spec.seed = 42;
  bench::RunTraced(obs, spec);
  return 0;
}
