#ifndef PRESERIAL_WORKLOAD_DEPLOYMENT_H_
#define PRESERIAL_WORKLOAD_DEPLOYMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/history.h"
#include "cluster/cluster.h"
#include "cluster/coordinator.h"
#include "cluster/router.h"
#include "common/random.h"
#include "gtm/gtm.h"
#include "replica/replica.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "workload/gtm_experiment.h"
#include "workload/runner.h"

namespace preserial::workload {

// One table of a workload as every topology and baseline loads it: schema,
// one row per object (keyed by the schema's primary key), an optional CHECK
// constraint, and the member columns, with their logical dependencies,
// that each row's object binds.
struct TableSetup {
  std::string name;
  storage::Schema schema;
  std::vector<std::pair<gtm::ObjectId, storage::Row>> rows;
  std::optional<storage::CheckConstraint> constraint;
  std::vector<size_t> members;
  semantics::LogicalDependencies deps;
};

// Creates `table`'s schema, rows and constraint in `db`; no GTM objects.
Status LoadTable(storage::Database* db, const TableSetup& table);

// A fresh database holding `tables` — the baselines' LDBS.
std::unique_ptr<storage::Database> OpenDatabase(
    const std::vector<TableSetup>& tables);

// The experiment drivers' one topology builder. Owns a simulator, the GTM
// deployment `topology` names — a single Gtm over its own Database, a
// GtmCluster behind a 2PC coordinator and router, or a ReplicatedGtm group
// — and the GtmRunner that drives sessions against it. Load() places a
// workload's tables where the topology keeps them; Finish() runs the
// simulation and reads back what every topology reports. Bootstrap
// failures abort: the drivers' inputs are fixed.
class Deployment {
 public:
  // `seed` seeds the replica ship link's fault stream. `wait_timeout` is
  // the runner's sweep (<= 0: none).
  Deployment(const Topology& topology, const gtm::GtmOptions& options,
             uint64_t seed, Duration wait_timeout);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Loads `table` in the order a replica group's op log makes visible:
  // schema, rows, constraint, then one registered object per row. The
  // schema and constraint go to every shard, each row to its object's
  // shard; a replica group takes all of it through its op log.
  void Load(const TableSetup& table);

  // --- observability --------------------------------------------------------
  // Enables every trace lane (each GTM, the router, the client lane) when
  // `trace_capacity` > 0, and attaches a history recorder to every
  // serialization domain when `history_capacity` > 0. Trace and history
  // share one ring per domain, sized for whichever asks for more. Call
  // after bootstrap: the recorders snapshot the initial state.
  void Observe(size_t trace_capacity, size_t history_capacity);

  // --- driving --------------------------------------------------------------
  sim::Simulator* simulator() { return &sim_; }
  GtmRunner* runner() { return runner_.get(); }
  size_t num_shards() const { return cluster_ ? cluster_->num_shards() : 1; }
  // Owning shard of `object`; 0 unless sharded.
  size_t ShardOf(const gtm::ObjectId& object) const;
  // Replicated topology only (nullptr otherwise).
  replica::ReplicatedGtm* group() { return group_.get(); }

  // Runs the simulation to completion and fills the topology-wide part of
  // `result`: run stats, per-shard and merged snapshots, coordinator and
  // router tallies, the merged trace and the recorded histories.
  void Finish(GtmExperimentResult* result);
  // Committed value of `column` in `table`'s row `key`, on the shard that
  // owns `object` (after a failover: on the promoted primary).
  storage::Value ReadCell(const gtm::ObjectId& object,
                          const std::string& table, const storage::Value& key,
                          size_t column);

 private:
  // GTMs whose traces are lanes of the merged trace: the single GTM, every
  // shard, or every replica node.
  std::vector<gtm::Gtm*> Lanes();

  sim::Simulator sim_;
  Rng ship_rng_;
  // Single and sharded topologies: databases and GTMs by shard.
  std::vector<storage::Database*> dbs_;
  std::vector<gtm::Gtm*> gtms_;
  // Single topology.
  storage::Database db_;
  std::unique_ptr<gtm::Gtm> single_;
  check::HistoryRecorder recorder_;
  // Sharded topology.
  std::unique_ptr<cluster::GtmCluster> cluster_;
  storage::MemoryWalStorage coordinator_wal_;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator_;
  std::unique_ptr<cluster::GtmRouter> router_;
  check::ClusterHistoryRecorder cluster_recorder_;
  // Replicated topology.
  std::unique_ptr<replica::ReplicatedGtm> group_;
  check::ReplicaHistoryRecorder group_recorder_;

  std::unique_ptr<GtmRunner> runner_;
  bool tracing_ = false;
  bool recording_ = false;
};

}  // namespace preserial::workload

#endif  // PRESERIAL_WORKLOAD_DEPLOYMENT_H_
