#ifndef PRESERIAL_WORKLOAD_GTM_EXPERIMENT_H_
#define PRESERIAL_WORKLOAD_GTM_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <variant>
#include <vector>

#include "check/history.h"
#include "cluster/coordinator.h"
#include "common/clock.h"
#include "gtm/metrics.h"
#include "gtm/trace.h"
#include "gtm/policies.h"
#include "mobile/network.h"
#include "replica/replica.h"
#include "workload/runner.h"

namespace preserial::workload {

// Transport discipline of a lossy client<->GTM link: fault rates of the
// channel plus the client's retry/degrade policy.
struct ChannelSpec {
  double loss = 0.2;       // P(drop) per message copy.
  double duplicate = 0.1;  // P(extra copy) per message.
  double reorder = 0.1;    // P(extra delay) per surviving copy.
  Duration delay_mean = 0.1;       // Mean one-way latency (exponential).
  Duration request_timeout = 1.0;  // Client deadline per attempt.
  int max_attempts = 3;            // Retry budget per request.
  Duration reconnect_delay = 5.0;  // Offline span per degrade episode.
  int max_degrades = 8;
  // true = degrade to Sleep on an exhausted budget (Algorithms 7-10);
  // false = the naive baseline that aborts on loss.
  bool degrade_to_sleep = true;
};

// Deployment shapes the experiment runs on (GtmExperimentSpec::topology).
//
// One GTM over its own database.
struct SingleTopology {};

// `num_shards` independent GTM shards behind a GtmRouter, objects placed by
// the cluster's FNV-1a hash placement. With probability `cross_shard_ratio` a
// subtraction transaction books a second object owned by a *different*
// shard, committing through the coordinator's two-phase protocol;
// everything else stays single-shard (one-phase fast path).
// Disconnections sleep/awake cluster-wide.
struct ShardedTopology {
  size_t num_shards = 4;
  double cross_shard_ratio = 0.0;  // P(second step on another shard).
};

// A replica::ReplicatedGtm: one primary + `num_backups` backups, log
// shipping per `ship`. At virtual time `fail_at` the primary is killed;
// `detect_delay` later the best backup is promoted. Clients notice nothing
// but silence — the channel's retry/backoff resends into the void until
// the promoted primary answers, and *Once sequence numbers keep
// redelivered requests exactly-once across the epoch change.
struct ReplicatedTopology {
  size_t num_backups = 1;
  replica::ShipOptions ship;      // Sync vs async, ship-link fault rates.
  Duration pump_interval = 0.1;   // Async shipping cadence (sync: unused).
  TimePoint fail_at = 0;          // Kill the primary here; <= 0 = never.
  Duration detect_delay = 1.0;    // Failure detection lag before promotion.
};

using Topology =
    std::variant<SingleTopology, ShardedTopology, ReplicatedTopology>;

// The paper's Sec. VI-B experiment: `num_txns` transactions arrive every
// `interarrival` seconds and each performs one operation on one of
// `num_objects` database objects —
//   with probability alpha       a mobile client books a ticket
//                                (subtraction, X_q = X_q - 1);
//   with probability 1 - alpha   an admin sets the price
//                                (assignment, X_p = price_value).
// Subtraction transactions disconnect with probability beta (assignments
// never do). Quantity and price are declared logically dependent members of
// the same object — the paper's own example of logical dependence — so
// assignments conflict with concurrent subtractions while subtractions
// share among themselves.
struct GtmExperimentSpec {
  size_t num_txns = 1000;
  size_t num_objects = 5;
  double alpha = 0.7;           // P(subtraction).
  double beta = 0.05;           // P(disconnection | subtraction).
  Duration interarrival = 0.5;  // Paper: 0.5 s.
  Duration work_time = 2.0;     // User activity between grant and commit.
  Duration disconnect_mean = 10.0;  // Mean reconnection delay.
  int64_t initial_quantity = 1000000;  // Large => constraint non-binding.
  double price_value = 100.0;
  bool add_quantity_constraint = false;  // CHECK qty >= 0.
  // Mean one-way wireless latency (exponential); paid once before the
  // invocation and once before the commit request. 0 = the paper's
  // latency-free emulation.
  double network_delay_mean = 0.0;
  uint64_t seed = 42;
  // Observability: capacity of every TraceLog the run touches (shard GTMs,
  // router, replica nodes, client lane). 0 keeps tracing off and the hot
  // path allocation-free; > 0 fills the result's `trace_events` with the
  // merged chronological event stream, span-correlated per transaction.
  size_t trace_capacity = 0;
  // Correctness checking: > 0 attaches a check::HistoryRecorder to every
  // serialization domain the run touches and fills the result's
  // `histories` for offline validation with check::CheckHistory. The value
  // bounds the per-domain event ring — a run recording more events than
  // this yields History::complete == false, which the checker flags.
  size_t history_capacity = 0;
  // Same-timestamp tie-break perturbation for the discrete-event executor
  // (sim::Simulator::SetTieBreaker): called with the tie count, returns
  // which tied event fires first. Unset keeps strict FIFO — the paper's
  // arrival-order semantics. Schedule-exploration harnesses use this to
  // vary interleavings without touching the planned workload.
  std::function<size_t(size_t)> tie_breaker;

  Topology topology;
  // Sharded and replicated topologies: waiting transactions older than
  // this are aborted by the runner's sweep. On a cluster it breaks
  // cross-shard deadlock cycles, which the per-shard waits-for graphs
  // cannot see; on a replica group it frees the waiters of a transaction
  // whose client gave up while the primary was dead (its abort never
  // landed). A single GTM breaks its own deadlocks and runs no sweep.
  // <= 0 disables the sweep.
  Duration wait_timeout = 30.0;
  // Set: every client request crosses a LossyChannel — requests carry
  // sequence numbers (the GTM dedups redeliveries), silent requests retry
  // with backoff, and exhausted budgets degrade to Sleep or abort per
  // `degrade_to_sleep`. Disconnection plans are ignored: the channel
  // supplies the outages. Required by the replicated topology, refused by
  // the sharded one.
  std::optional<ChannelSpec> channel;
};

// SessionStats/RunStats tag values used by the experiment.
inline constexpr int kTagSubtract = 0;  // Mobile booking clients.
inline constexpr int kTagAssign = 1;    // Admin price setters.

// What a replicated run's failover did.
struct FailoverReport {
  // The promotion's own account — Sleeping transactions the dead primary
  // knew and how many the winner preserved or lost, the fenced-off log
  // suffix, the new epoch. Unset when no failover ran.
  std::optional<replica::PromotionReport> promotion;
  int64_t replication_lag_at_kill = 0;
  Duration latency = 0;  // Kill -> promoted (virtual time).
  uint64_t final_epoch = 1;
  // Conservation cross-check: subtractions the promoted primary reports
  // committed. Under sync shipping it agrees with what clients believe
  // (run.CommittedWithTag(kTagSubtract)) and with quantity_consumed, what
  // was actually drained from its database; async may lose acknowledged
  // commits.
  int64_t server_committed_subtracts = 0;
  replica::ShipCounters ship;
};

// Aggregate of one GTM run, on any topology.
struct GtmExperimentResult {
  RunStats run;
  // GTM metrics — the only source of the run's GTM counters. One snapshot
  // per shard (a single GTM, or a replica group's post-run primary, is one
  // shard) and `snapshot`, all of them merged.
  std::vector<gtm::GtmMetrics::Snapshot> shard_snapshots;
  gtm::GtmMetrics::Snapshot snapshot;
  // Merged GTM + router + client trace (empty unless trace_capacity > 0);
  // shard lanes carry their shard id, router/client events shard = -1.
  // Events a promoted backup replayed from the shipped log appear on both
  // nodes' lanes — each node's own view.
  std::vector<gtm::TraceEvent> trace_events;
  // One recorded history per serialization domain: per shard, or the
  // replica group's post-failover primary — the authoritative surviving
  // timeline (empty unless history_capacity > 0).
  std::vector<check::History> histories;
  // Sharded topology: 2PC outcomes and the router's own tallies.
  cluster::ClusterCoordinator::Counters coordinator;
  int64_t router_committed = 0;
  int64_t router_aborted = 0;
  // Sec. VI-B runs: transactions planned with two shards, and the ground
  // truth read back from the database — quantity drained per shard and in
  // total. Committed subtractions (plus second bookings) must equal it;
  // any difference is a double-applied or lost commit.
  int64_t cross_shard_planned = 0;
  std::vector<int64_t> consumed_by_shard;
  int64_t quantity_consumed = 0;
  mobile::LossyChannel::Counters channel;  // Zero unless spec.channel.
  FailoverReport failover;                 // Replicated topology only.
};

// Runs the experiment against the GTM deployed per `spec.topology`.
// Aborts on combinations no experiment runs: a sharded topology with a
// channel, a replicated one without.
GtmExperimentResult RunGtmExperiment(const GtmExperimentSpec& spec,
                                     const gtm::GtmOptions& options = {});

// Policies of the 2PL baseline run.
struct TwoPlPolicy {
  Duration lock_wait_timeout = 30.0;
  Duration idle_timeout = 30.0;  // Preventive abort of disconnected holders.
  bool use_update_locks = true;
};

// Aggregate of one baseline (2PL or OCC) run.
struct BaselineResult {
  RunStats run;
  txn::TwoPhaseLockingEngine::Counters two_pl;  // Zero for OCC.
};

// Runs the same arrival sequence against the strict-2PL baseline.
BaselineResult RunTwoPlExperiment(const GtmExperimentSpec& spec,
                                  const TwoPlPolicy& policy = {});

// Runs the same sequence against the freeze/OCC baseline (Sec. II second
// strategy): no locks, operations applied at commit under constraints.
// `validate_reads` selects the backward-validation flavour.
BaselineResult RunOccExperiment(const GtmExperimentSpec& spec,
                                bool validate_reads = false);

}  // namespace preserial::workload

#endif  // PRESERIAL_WORKLOAD_GTM_EXPERIMENT_H_
