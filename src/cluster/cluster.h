#ifndef PRESERIAL_CLUSTER_CLUSTER_H_
#define PRESERIAL_CLUSTER_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/shard_map.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "gtm/endpoint.h"
#include "gtm/gtm.h"
#include "replica/replica.h"
#include "storage/database.h"

namespace preserial::cluster {

// Cluster-wide knobs. With `replicas_per_shard` > 0 every shard becomes a
// replica group (replica::ReplicatedGtm): one primary plus that many
// backups sharing a log-shipping configuration, so a shard survives its
// primary dying (KillShardPrimary + PromoteShard).
struct GtmClusterOptions {
  gtm::GtmOptions gtm;
  size_t replicas_per_shard = 0;
  replica::ShipOptions ship;
  uint64_t ship_seed = 0x5eedULL;
};

// N independent GTM shards, each with its own lock domain, metrics, SST
// executor and LDBS, bound together by a ShardMap. The cluster owns the
// shard Gtms and their databases; ownership of an object follows
// ShardOf(object.id) — its backing row lives only in the owning shard's
// database and all operations on it route to that shard's Gtm.
//
// Externally synchronized, like Gtm: the discrete-event simulator drives
// it directly, ClusterService adds per-shard locking for real threads. The
// ShardBackend implementation forwards to the shard Gtms without locking.
class GtmCluster : public ShardBackend {
 public:
  GtmCluster(size_t num_shards, const Clock* clock,
             gtm::GtmOptions options = {});
  GtmCluster(size_t num_shards, const Clock* clock, GtmClusterOptions options);

  GtmCluster(const GtmCluster&) = delete;
  GtmCluster& operator=(const GtmCluster&) = delete;

  size_t num_shards() const override { return map_.num_shards(); }
  const ShardMap& shard_map() const { return map_; }
  ShardId ShardOf(const gtm::ObjectId& id) const { return map_.ShardOf(id); }

  // Whether shards are replica groups.
  bool replicated() const { return !groups_.empty(); }

  // The shard's client-facing endpoint: the Gtm itself, or the replica
  // group's primary-routing facade. Everything the router and services do
  // goes through this, so a dead primary surfaces as kUnavailable replies
  // rather than a vanished shard.
  gtm::GtmEndpoint* endpoint(ShardId s);

  // The shard's (current primary's) state machine and database.
  gtm::Gtm* shard(ShardId s);
  const gtm::Gtm* shard(ShardId s) const;
  storage::Database* db(ShardId s);
  replica::ReplicatedGtm* group(ShardId s) { return groups_[s].get(); }

  // Shard-routed registration: binds the object on its owning shard. The
  // backing row must already exist in that shard's database (see
  // CreateTableAllShards + InsertRow).
  Status RegisterObject(const gtm::ObjectId& id, const std::string& table,
                        const storage::Value& key,
                        std::vector<size_t> member_columns,
                        semantics::LogicalDependencies deps = {});

  // DDL convenience: creates the same table on every shard's LDBS (rows are
  // then inserted only into their owners).
  Status CreateTableAllShards(const std::string& table,
                              const storage::Schema& schema);

  // Shard-scoped bulk load. On a replicated cluster the insert goes through
  // the shard's op log so every backup sees it; writing to db(s) directly
  // would silently diverge the replicas.
  Status InsertRow(ShardId s, const std::string& table, storage::Row row);

  // X_permanent of a member, read from the owning shard.
  Result<storage::Value> PermanentValue(const gtm::ObjectId& id,
                                        semantics::MemberId member) const;

  // Per-shard and merged metrics (satellite: Snapshot::MergeFrom).
  gtm::GtmMetrics::Snapshot ShardSnapshot(ShardId s) const {
    return shard(s)->metrics().TakeSnapshot();
  }
  gtm::GtmMetrics::Snapshot AggregateSnapshot() const;

  // Cluster-wide introspection: every shard's (current primary's)
  // Gtm::Explain(), shard ids stamped.
  obs::ClusterExplain Explain() const;

  // --- replica-group control (replicated clusters only) --------------------
  void KillShardPrimary(ShardId s) { groups_[s]->KillPrimary(); }
  bool ShardPrimaryAlive(ShardId s) const {
    return groups_[s]->primary_alive();
  }
  Result<replica::PromotionReport> PromoteShard(ShardId s) {
    return groups_[s]->Promote();
  }

  // --- ShardBackend (unlocked; single-threaded drivers only) ---------------
  Status Prepare(ShardId shard, TxnId branch) override;
  Status CommitPrepared(ShardId shard, TxnId branch) override;
  Status AbortBranch(ShardId shard, TxnId branch) override;

 private:
  ShardMap map_;
  std::vector<std::unique_ptr<storage::Database>> dbs_;
  std::vector<std::unique_ptr<gtm::Gtm>> shards_;
  // Replicated mode: groups_ replaces dbs_/shards_.
  std::unique_ptr<Rng> ship_rng_;
  std::vector<std::unique_ptr<replica::ReplicatedGtm>> groups_;
};

}  // namespace preserial::cluster

#endif  // PRESERIAL_CLUSTER_CLUSTER_H_
