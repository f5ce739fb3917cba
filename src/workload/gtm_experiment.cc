#include "workload/gtm_experiment.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "gtm/gtm.h"
#include "mobile/disconnect_model.h"
#include "mobile/network.h"
#include "storage/database.h"
#include "txn/occ.h"
#include "workload/deployment.h"

namespace preserial::workload {

namespace {

using mobile::DisconnectPlan;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr char kTable[] = "resources";
constexpr size_t kColId = 0;
constexpr size_t kColQty = 1;
constexpr size_t kColPrice = 2;

// One planned transaction of the experiment, engine-agnostic.
struct PlannedTxn {
  size_t object = 0;
  bool is_subtract = true;
  DisconnectPlan disconnect;
  TimePoint arrival = 0;
  Duration invoke_delay = 0;
  Duration commit_delay = 0;
};

std::vector<PlannedTxn> BuildPlans(const GtmExperimentSpec& spec, Rng* rng) {
  const mobile::DisconnectModel disconnects =
      mobile::DisconnectModel::WithExponentialDuration(spec.beta,
                                                       spec.disconnect_mean);
  const mobile::NetworkModel network =
      spec.network_delay_mean > 0
          ? mobile::NetworkModel(std::make_unique<sim::ExponentialDist>(
                spec.network_delay_mean))
          : mobile::NetworkModel();
  std::vector<PlannedTxn> plans;
  plans.reserve(spec.num_txns);
  TimePoint arrival = 0;
  for (size_t i = 0; i < spec.num_txns; ++i) {
    PlannedTxn p;
    p.object = rng->NextBounded(spec.num_objects);  // gamma_j = uniform.
    p.is_subtract = rng->NextBool(spec.alpha);
    if (p.is_subtract) {
      // Only mobile (subtraction) clients disconnect, per the paper.
      p.disconnect = disconnects.Sample(*rng, spec.work_time);
    }
    p.invoke_delay = network.SampleDelay(*rng);
    p.commit_delay = network.SampleDelay(*rng);
    p.arrival = arrival;
    arrival += spec.interarrival;
    plans.push_back(p);
  }
  return plans;
}

gtm::ObjectId ObjectIdFor(size_t i) {
  return StrFormat("%s/%zu", kTable, i);
}

Value KeyOf(size_t i) { return Value::Int(static_cast<int64_t>(i)); }

// The experiment's one table: a row per object holding qty and price,
// which the object binds as logically dependent members, and the CHECK
// constraint when the spec asks for it.
TableSetup Resources(const GtmExperimentSpec& spec) {
  TableSetup table;
  table.name = kTable;
  table.schema = Schema({ColumnDef{"id", ValueType::kInt64, false},
                         ColumnDef{"qty", ValueType::kInt64, false},
                         ColumnDef{"price", ValueType::kDouble, false}},
                        kColId);
  for (size_t i = 0; i < spec.num_objects; ++i) {
    table.rows.emplace_back(
        ObjectIdFor(i), Row({KeyOf(i), Value::Int(spec.initial_quantity),
                             Value::Double(spec.price_value)}));
  }
  if (spec.add_quantity_constraint) {
    table.constraint = storage::CheckConstraint(
        "qty_nonneg", kColQty, storage::CompareOp::kGe, Value::Int(0));
  }
  table.members = {kColQty, kColPrice};
  table.deps.AddDependency(0, 1);
  return table;
}

mobile::LossyChannel MakeChannel(const ChannelSpec& channel) {
  mobile::ChannelFaults faults;
  faults.loss = channel.loss;
  faults.duplicate = channel.duplicate;
  faults.reorder = channel.reorder;
  return mobile::LossyChannel(
      channel.delay_mean > 0
          ? mobile::NetworkModel(
                std::make_unique<sim::ExponentialDist>(channel.delay_mean))
          : mobile::NetworkModel(),
      faults);
}

// `p` as a single-operation plan: subtract one from qty, or assign the
// price.
mobile::TxnPlan StepPlan(const GtmExperimentSpec& spec, const PlannedTxn& p) {
  mobile::TxnPlan plan;
  plan.object = ObjectIdFor(p.object);
  if (p.is_subtract) {
    plan.member = 0;  // qty
    plan.op = semantics::Operation::Sub(Value::Int(1));
  } else {
    plan.member = 1;  // price
    plan.op = semantics::Operation::Assign(Value::Double(spec.price_value));
  }
  plan.work_time = spec.work_time;
  plan.disconnect = p.disconnect;
  plan.invoke_delay = p.invoke_delay;
  plan.commit_delay = p.commit_delay;
  plan.tag = p.is_subtract ? kTagSubtract : kTagAssign;
  return plan;
}

mobile::FtPlan FaultTolerantPlan(mobile::TxnPlan step,
                                 const ChannelSpec& channel) {
  mobile::FtPlan plan;
  plan.base = std::move(step);
  plan.retry.request_timeout = channel.request_timeout;
  plan.retry.max_attempts = channel.max_attempts;
  plan.mode = channel.degrade_to_sleep ? mobile::FtMode::kDegradeToSleep
                                       : mobile::FtMode::kAbortOnLoss;
  plan.reconnect_delay = channel.reconnect_delay;
  plan.max_degrades = channel.max_degrades;
  return plan;
}

// Kills the primary at `fail_at` and promotes the best backup
// `detect_delay` later, recording both ends in `report`.
void ScheduleFailover(const ReplicatedTopology& topology, Deployment* d,
                      FailoverReport* report) {
  replica::ReplicatedGtm* group = d->group();
  const TimePoint kill_time = topology.fail_at;
  d->simulator()->At(kill_time, [group, report] {
    report->replication_lag_at_kill =
        static_cast<int64_t>(group->shipper()->Lag());
    group->KillPrimary();
  });
  d->simulator()->At(kill_time + topology.detect_delay,
                     [d, group, report, kill_time] {
    Result<replica::PromotionReport> rep = group->Promote();
    PRESERIAL_CHECK(rep.ok()) << rep.status().ToString();
    report->promotion = rep.value();
    report->latency = d->simulator()->Now() - kill_time;
    // Deliver the synthesized grant events to any parked sessions.
    d->runner()->DispatchEvents();
  });
}

}  // namespace

GtmExperimentResult RunGtmExperiment(const GtmExperimentSpec& spec,
                                     const gtm::GtmOptions& options) {
  const auto* sharded = std::get_if<ShardedTopology>(&spec.topology);
  const auto* replicated = std::get_if<ReplicatedTopology>(&spec.topology);
  PRESERIAL_CHECK(spec.channel ? sharded == nullptr : replicated == nullptr)
      << "sharded runs take no channel; replicated runs need one";
  Rng rng(spec.seed);
  // Channel faults draw from their own stream so the planned workload stays
  // identical across fault rates and modes (paired comparisons).
  Rng channel_rng(spec.seed ^ 0x9e3779b97f4a7c15ull);
  const bool single = std::holds_alternative<SingleTopology>(spec.topology);
  Deployment d(spec.topology, options, spec.seed,
               single ? 0 : spec.wait_timeout);
  if (spec.tie_breaker) d.simulator()->SetTieBreaker(spec.tie_breaker);

  d.Load(Resources(spec));
  d.Observe(spec.trace_capacity, spec.history_capacity);

  const mobile::LossyChannel lossy =
      spec.channel ? MakeChannel(*spec.channel) : mobile::LossyChannel();
  std::vector<size_t> owner(spec.num_objects);
  for (size_t i = 0; i < spec.num_objects; ++i) {
    owner[i] = d.ShardOf(ObjectIdFor(i));
  }
  // Whether any cross-shard pairing exists at all (e.g. one shard => no).
  const bool can_cross =
      std::adjacent_find(owner.begin(), owner.end(),
                         std::not_equal_to<>()) != owner.end();

  GtmExperimentResult result;
  // Replicated runs ask the promoted primary which subtractions committed.
  std::vector<mobile::FaultTolerantGtmSession*> subtract_sessions;
  for (const PlannedTxn& p : BuildPlans(spec, &rng)) {
    mobile::TxnPlan step = StepPlan(spec, p);
    if (spec.channel) {
      mobile::FaultTolerantGtmSession* session =
          d.runner()->AddFaultTolerantSession(
              FaultTolerantPlan(std::move(step), *spec.channel), p.arrival,
              &lossy, &channel_rng);
      if (p.is_subtract) subtract_sessions.push_back(session);
      continue;
    }
    if (sharded != nullptr) step.shard = static_cast<int>(owner[p.object]);
    mobile::MultiTxnPlan plan = mobile::OneStepPlan(std::move(step));
    if (sharded != nullptr && p.is_subtract && can_cross &&
        rng.NextBool(sharded->cross_shard_ratio)) {
      // Second booking on an object another shard owns: the tour spans
      // two lock domains and must commit through the coordinator.
      size_t other = rng.NextBounded(spec.num_objects);
      while (owner[other] == owner[p.object]) {
        other = rng.NextBounded(spec.num_objects);
      }
      plan.steps[0].think_time = spec.work_time / 2;
      mobile::TourStep second;
      second.object = ObjectIdFor(other);
      second.member = 0;  // qty
      second.op = semantics::Operation::Sub(Value::Int(1));
      second.shard = static_cast<int>(owner[other]);
      plan.steps.push_back(std::move(second));
      plan.final_think = spec.work_time / 2;
      ++result.cross_shard_planned;
    }
    d.runner()->AddMultiSession(std::move(plan), p.arrival);
  }

  if (replicated != nullptr) {
    // Async shipping cadence: pre-scheduled rounds out to a horizon past
    // the last plausible completion (a self-rescheduling pump would keep
    // the event queue alive forever and the simulation would never drain).
    if (replicated->ship.mode == replica::ShipMode::kAsync &&
        replicated->pump_interval > 0) {
      replica::ReplicatedGtm* group = d.group();
      const TimePoint horizon =
          static_cast<double>(spec.num_txns) * spec.interarrival + 300.0;
      for (TimePoint t = replicated->pump_interval; t < horizon;
           t += replicated->pump_interval) {
        d.simulator()->At(t, [group] { (void)group->Pump(); });
      }
    }
    if (replicated->fail_at > 0) {
      ScheduleFailover(*replicated, &d, &result.failover);
    }
  }

  d.Finish(&result);
  result.channel = lossy.counters();
  if (replicated != nullptr) {
    replica::ReplicatedGtm* group = d.group();
    result.failover.final_epoch = group->epoch();
    result.failover.ship = group->shipper()->counters();
    for (const mobile::FaultTolerantGtmSession* session : subtract_sessions) {
      if (session->txn() == kInvalidTxnId) continue;
      Result<gtm::TxnState> st = group->primary_gtm()->StateOf(session->txn());
      if (st.ok() && st.value() == gtm::TxnState::kCommitted) {
        ++result.failover.server_committed_subtracts;
      }
    }
  }
  result.consumed_by_shard.assign(d.num_shards(), 0);
  for (size_t i = 0; i < spec.num_objects; ++i) {
    const int64_t consumed =
        spec.initial_quantity -
        d.ReadCell(ObjectIdFor(i), kTable, KeyOf(i), kColQty).as_int();
    result.consumed_by_shard[owner[i]] += consumed;
    result.quantity_consumed += consumed;
  }
  return result;
}

BaselineResult RunTwoPlExperiment(const GtmExperimentSpec& spec,
                                  const TwoPlPolicy& policy) {
  Rng rng(spec.seed);
  std::unique_ptr<storage::Database> db = OpenDatabase({Resources(spec)});

  txn::TwoPhaseLockingOptions options;
  options.use_update_locks = policy.use_update_locks;
  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock(), options);
  TwoPlRunner runner(&engine, &simulator);

  for (const PlannedTxn& p : BuildPlans(spec, &rng)) {
    // One step: lock the cell, then the user's work before the commit hop.
    mobile::TwoPlTourStep step;
    step.table = kTable;
    step.key = Value::Int(static_cast<int64_t>(p.object));
    step.column = p.is_subtract ? kColQty : kColPrice;
    step.is_subtract = p.is_subtract;
    if (!p.is_subtract) {
      step.assign_value = Value::Double(spec.price_value);
    }
    step.invoke_delay = p.invoke_delay;
    mobile::MultiTwoPlPlan plan;
    plan.steps.push_back(std::move(step));
    plan.final_think = spec.work_time;
    plan.commit_delay = p.commit_delay;
    plan.disconnect = p.disconnect;
    plan.lock_wait_timeout = policy.lock_wait_timeout;
    plan.idle_timeout = policy.idle_timeout;
    plan.tag = p.is_subtract ? kTagSubtract : kTagAssign;
    runner.AddMultiSession(std::move(plan), p.arrival);
  }

  BaselineResult result;
  result.run = runner.Run();
  result.two_pl = engine.counters();
  return result;
}

BaselineResult RunOccExperiment(const GtmExperimentSpec& spec,
                                bool validate_reads) {
  Rng rng(spec.seed);
  std::unique_ptr<storage::Database> db = OpenDatabase({Resources(spec)});
  txn::OccEngine engine(db.get(),
                        validate_reads
                            ? txn::OccEngine::Validation::kValidateReads
                            : txn::OccEngine::Validation::kConstraintsOnly);

  sim::Simulator sim;
  RunStats stats;
  for (const PlannedTxn& p : BuildPlans(spec, &rng)) {
    sim.At(p.arrival, [&engine, &sim, &stats, &spec, p] {
      const TimePoint arrival = sim.Now();
      const TxnId t = engine.Begin();
      const Value key = Value::Int(static_cast<int64_t>(p.object));
      bool buffered_ok = true;
      if (p.is_subtract) {
        Result<Value> v = engine.Read(t, kTable, key, kColQty);
        buffered_ok =
            v.ok() &&
            engine.BufferAdd(t, kTable, key, kColQty, Value::Int(-1)).ok();
      } else {
        buffered_ok = engine
                          .BufferAssign(t, kTable, key, kColPrice,
                                        Value::Double(spec.price_value))
                          .ok();
      }
      // The user works (and possibly disconnects — harmless here: no locks
      // are held); the frozen transaction executes at commit time.
      Duration span = spec.work_time;
      if (p.disconnect.disconnects) span += p.disconnect.duration;
      sim.After(span, [&engine, &sim, &stats, p, arrival, t, buffered_ok] {
        mobile::SessionStats s;
        s.txn = t;
        s.arrival = arrival;
        s.finish = sim.Now();
        s.disconnected = p.disconnect.disconnects;
        if (!buffered_ok) {
          s.committed = false;
          s.cause = mobile::AbortCause::kOther;
        } else {
          const Status cs = engine.Commit(t);
          s.committed = cs.ok();
          s.cause = cs.ok() ? mobile::AbortCause::kNone
                            : mobile::AbortCause::kConstraint;
        }
        stats.Record(s);
      });
    });
  }
  sim.Run();

  BaselineResult result;
  result.run = stats;
  return result;
}

}  // namespace preserial::workload
