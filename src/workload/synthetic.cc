#include "workload/synthetic.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "gtm/gtm.h"
#include "model/analytic.h"
#include "storage/database.h"
#include "workload/deployment.h"
#include "workload/runner.h"

namespace preserial::workload {

namespace {

using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr char kTable[] = "cells";
constexpr size_t kColId = 0;
constexpr size_t kColVal = 1;

gtm::ObjectId ObjFor(int64_t i) { return StrFormat("cell/%lld",
                                                   static_cast<long long>(i)); }

// One row per object; plenty of headroom for add/sub traffic.
TableSetup Cells(int64_t num_objects) {
  TableSetup table;
  table.name = kTable;
  table.schema = Schema({ColumnDef{"id", ValueType::kInt64, false},
                         ColumnDef{"val", ValueType::kInt64, false}},
                        kColId);
  for (int64_t i = 0; i < num_objects; ++i) {
    table.rows.emplace_back(ObjFor(i),
                            Row({Value::Int(i), Value::Int(1000000)}));
  }
  table.members = {kColVal};
  return table;
}

// A single GTM over the cells.
std::unique_ptr<Deployment> BuildGtm(int64_t num_objects) {
  auto d = std::make_unique<Deployment>(SingleTopology{}, gtm::GtmOptions{},
                                        /*seed=*/0, /*wait_timeout=*/0);
  d->Load(Cells(num_objects));
  return d;
}

// Per-transaction shape shared by both engines.
struct MicroPlan {
  bool incompatible = false;  // Assignment-class measured txn.
  bool conflicted = false;    // A background holder overlaps it.
  TimePoint arrival = 0;
};

std::vector<MicroPlan> BuildMicroPlans(const ConflictSpec& spec, Rng* rng) {
  std::vector<MicroPlan> plans(static_cast<size_t>(spec.n));
  // Mark i transactions incompatible and c conflicted, independently and
  // uniformly (the hypergeometric overlap K emerges naturally).
  std::vector<size_t> order = rng->Permutation(plans.size());
  for (int64_t j = 0; j < std::min<int64_t>(spec.i, spec.n); ++j) {
    plans[order[static_cast<size_t>(j)]].incompatible = true;
  }
  order = rng->Permutation(plans.size());
  for (int64_t j = 0; j < std::min<int64_t>(spec.c, spec.n); ++j) {
    plans[order[static_cast<size_t>(j)]].conflicted = true;
  }
  // Space arrivals far apart so measured transactions never interact with
  // each other, only with their dedicated background holder.
  const double gap = 10.0 * spec.tau_e;
  for (size_t j = 0; j < plans.size(); ++j) {
    plans[j].arrival = static_cast<double>(j + 1) * gap;
  }
  return plans;
}

}  // namespace

ConflictResult RunConflictExperiment(const ConflictSpec& spec) {
  Rng rng(spec.seed);
  const std::vector<MicroPlan> plans = BuildMicroPlans(spec, &rng);

  ConflictResult result;
  result.model_2pl = model::TwoPlExecutionTime(spec.n, spec.c, spec.tau_e);
  result.model_gtm =
      model::OurExecutionTime(spec.n, spec.c, spec.i, spec.tau_e);
  for (const MicroPlan& p : plans) {
    if (p.conflicted && p.incompatible) ++result.k_incompatible_conflicts;
  }

  // --- GTM ------------------------------------------------------------------
  {
    std::unique_ptr<Deployment> d = BuildGtm(spec.n);
    GtmRunner& runner = *d->runner();
    for (size_t j = 0; j < plans.size(); ++j) {
      const MicroPlan& p = plans[j];
      if (p.conflicted) {
        // Background holder: add/sub class, begins tau_e/2 before the
        // measured transaction, commits tau_e/2 after it arrives.
        mobile::TxnPlan holder;
        holder.object = ObjFor(static_cast<int64_t>(j));
        holder.member = 0;
        holder.op = semantics::Operation::Add(Value::Int(1));
        holder.work_time = spec.tau_e;
        runner.AddSession(std::move(holder), p.arrival - spec.tau_e / 2,
                          /*measured=*/false);
      }
      mobile::TxnPlan measured;
      measured.object = ObjFor(static_cast<int64_t>(j));
      measured.member = 0;
      measured.op = p.incompatible
                        ? semantics::Operation::Assign(Value::Int(7))
                        : semantics::Operation::Sub(Value::Int(1));
      measured.work_time = spec.tau_e;
      runner.AddSession(std::move(measured), p.arrival);
    }
    const RunStats& stats = runner.Run();
    result.avg_exec_gtm = stats.latency_all.mean();
  }

  // --- strict 2PL -------------------------------------------------------------
  {
    std::unique_ptr<storage::Database> db = OpenDatabase({Cells(spec.n)});
    sim::Simulator simulator;
    txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
    TwoPlRunner runner(&engine, &simulator);
    for (size_t j = 0; j < plans.size(); ++j) {
      const MicroPlan& p = plans[j];
      // One step on cell j, then tau_e of work before the commit.
      auto plan = [&](bool is_subtract) {
        mobile::TwoPlTourStep step;
        step.table = kTable;
        step.key = Value::Int(static_cast<int64_t>(j));
        step.column = kColVal;
        step.is_subtract = is_subtract;
        if (!is_subtract) step.assign_value = Value::Int(7);
        mobile::MultiTwoPlPlan one;
        one.steps.push_back(std::move(step));
        one.final_think = spec.tau_e;
        return one;
      };
      if (p.conflicted) {
        runner.AddMultiSession(plan(/*is_subtract=*/true),
                               p.arrival - spec.tau_e / 2,
                               /*measured=*/false);
      }
      runner.AddMultiSession(plan(!p.incompatible), p.arrival);
    }
    const RunStats& stats = runner.Run();
    result.avg_exec_2pl = stats.latency_all.mean();
  }
  return result;
}

SleeperResult RunSleeperAbortExperiment(const SleeperSpec& spec) {
  Rng rng(spec.seed);
  std::unique_ptr<Deployment> d = BuildGtm(spec.n);
  GtmRunner& runner = *d->runner();

  const double gap = 10.0 * (spec.tau_e + spec.sleep_duration);
  for (int64_t j = 0; j < spec.n; ++j) {
    const TimePoint arrival = static_cast<double>(j + 1) * gap;
    const bool disconnects = rng.NextBool(spec.p_disconnect);
    const bool conflicted = rng.NextBool(spec.p_conflict);
    const bool incompatible = rng.NextBool(spec.p_incompatible);

    mobile::TxnPlan measured;
    measured.object = ObjFor(j);
    measured.member = 0;
    measured.op = semantics::Operation::Sub(Value::Int(1));
    measured.work_time = spec.tau_e;
    if (disconnects) {
      measured.disconnect.disconnects = true;
      measured.disconnect.offset = spec.tau_e / 2;
      measured.disconnect.duration = spec.sleep_duration;
    }
    runner.AddSession(std::move(measured), arrival);

    if (conflicted) {
      // Background transaction lands right after the sleep would begin and
      // commits well before the awake.
      mobile::TxnPlan background;
      background.object = ObjFor(j);
      background.member = 0;
      background.op = incompatible
                          ? semantics::Operation::Assign(Value::Int(7))
                          : semantics::Operation::Add(Value::Int(1));
      background.work_time = std::min(0.25 * spec.sleep_duration,
                                      0.5 * spec.tau_e);
      runner.AddSession(std::move(background),
                        arrival + spec.tau_e / 2 + 0.01 * spec.sleep_duration,
                        /*measured=*/false);
    }
  }

  const RunStats& stats = runner.Run();
  SleeperResult result;
  result.abort_pct_all = stats.AbortPercent();
  result.abort_pct_disconnected = stats.DisconnectedAbortPercent();
  result.model_abort_pct =
      100.0 * model::SleeperAbortProbability(spec.p_disconnect,
                                             spec.p_conflict,
                                             spec.p_incompatible);
  return result;
}

}  // namespace preserial::workload
