#include "cluster/cluster.h"

#include <utility>

#include "common/strings.h"
#include "gtm/txn_state.h"

namespace preserial::cluster {

GtmCluster::GtmCluster(size_t num_shards, const Clock* clock,
                       gtm::GtmOptions options)
    : map_(num_shards) {
  dbs_.reserve(num_shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    dbs_.push_back(std::make_unique<storage::Database>());
    shards_.push_back(
        std::make_unique<gtm::Gtm>(dbs_.back().get(), clock, options));
    shards_.back()->trace()->set_default_shard(static_cast<int>(s));
  }
}

GtmCluster::GtmCluster(size_t num_shards, const Clock* clock,
                       GtmClusterOptions options)
    : map_(num_shards) {
  if (options.replicas_per_shard == 0) {
    dbs_.reserve(num_shards);
    shards_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      dbs_.push_back(std::make_unique<storage::Database>());
      shards_.push_back(
          std::make_unique<gtm::Gtm>(dbs_.back().get(), clock, options.gtm));
      shards_.back()->trace()->set_default_shard(static_cast<int>(s));
    }
    return;
  }
  ship_rng_ = std::make_unique<Rng>(options.ship_seed);
  replica::ReplicaOptions ropts;
  ropts.num_backups = options.replicas_per_shard;
  ropts.ship = options.ship;
  groups_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    groups_.push_back(std::make_unique<replica::ReplicatedGtm>(
        clock, options.gtm, ropts, ship_rng_.get()));
    // Stamp every node, not just the primary: a promoted backup keeps
    // recording under the same shard lane.
    replica::ReplicatedGtm* g = groups_.back().get();
    for (size_t n = 0; n < g->num_nodes(); ++n) {
      g->node(n)->gtm()->trace()->set_default_shard(static_cast<int>(s));
    }
  }
}

gtm::GtmEndpoint* GtmCluster::endpoint(ShardId s) {
  if (replicated()) return groups_[s].get();
  return shards_[s].get();
}

gtm::Gtm* GtmCluster::shard(ShardId s) {
  if (replicated()) return groups_[s]->primary_gtm();
  return shards_[s].get();
}

const gtm::Gtm* GtmCluster::shard(ShardId s) const {
  if (replicated()) return groups_[s]->primary_gtm();
  return shards_[s].get();
}

storage::Database* GtmCluster::db(ShardId s) {
  if (replicated()) return groups_[s]->primary_db();
  return dbs_[s].get();
}

Status GtmCluster::RegisterObject(const gtm::ObjectId& id,
                                  const std::string& table,
                                  const storage::Value& key,
                                  std::vector<size_t> member_columns,
                                  semantics::LogicalDependencies deps) {
  const ShardId s = ShardOf(id);
  if (replicated()) {
    return groups_[s]->RegisterObject(id, table, key,
                                      std::move(member_columns),
                                      std::move(deps));
  }
  return shards_[s]->RegisterObject(id, table, key, std::move(member_columns),
                                    std::move(deps));
}

Status GtmCluster::CreateTableAllShards(const std::string& table,
                                        const storage::Schema& schema) {
  if (replicated()) {
    for (auto& group : groups_) {
      PRESERIAL_RETURN_IF_ERROR(group->CreateTable(table, schema));
    }
    return Status::Ok();
  }
  for (auto& db : dbs_) {
    Result<storage::Table*> t = db->CreateTable(table, schema);
    if (!t.ok()) return t.status();
  }
  return Status::Ok();
}

Status GtmCluster::InsertRow(ShardId s, const std::string& table,
                             storage::Row row) {
  if (replicated()) return groups_[s]->InsertRow(table, std::move(row));
  return dbs_[s]->InsertRow(table, std::move(row));
}

Result<storage::Value> GtmCluster::PermanentValue(
    const gtm::ObjectId& id, semantics::MemberId member) const {
  return shard(ShardOf(id))->PermanentValue(id, member);
}

obs::ClusterExplain GtmCluster::Explain() const {
  obs::ClusterExplain out;
  for (size_t s = 0; s < num_shards(); ++s) {
    obs::GtmExplain ex = shard(s)->Explain();
    ex.shard = static_cast<int>(s);
    out.now = ex.now;
    out.shards.push_back(std::move(ex));
  }
  return out;
}

gtm::GtmMetrics::Snapshot GtmCluster::AggregateSnapshot() const {
  gtm::GtmMetrics::Snapshot agg;
  for (size_t s = 0; s < num_shards(); ++s) {
    agg.MergeFrom(ShardSnapshot(s));
  }
  return agg;
}

Status GtmCluster::Prepare(ShardId shard, TxnId branch) {
  if (replicated()) return groups_[shard]->Prepare(branch);
  return shards_[shard]->Prepare(branch);
}

Status GtmCluster::CommitPrepared(ShardId shard, TxnId branch) {
  if (replicated()) return groups_[shard]->CommitPrepared(branch);
  return shards_[shard]->CommitPrepared(branch);
}

Status GtmCluster::AbortBranch(ShardId shard, TxnId branch) {
  if (replicated()) {
    replica::ReplicatedGtm* g = groups_[shard].get();
    if (!g->primary_alive()) {
      return Status::Unavailable("AbortBranch: shard primary is down");
    }
    if (g->primary_gtm()->IsPrepared(branch)) return g->AbortPrepared(branch);
    Result<gtm::TxnState> st = g->StateOf(branch);
    if (!st.ok()) return st.status();
    switch (st.value()) {
      case gtm::TxnState::kAborted:
        return Status::Ok();  // Idempotent.
      case gtm::TxnState::kCommitted:
        return Status::FailedPrecondition(StrFormat(
            "AbortBranch: shard %zu txn %llu already committed", shard,
            static_cast<unsigned long long>(branch)));
      default:
        return g->RequestAbort(branch);
    }
  }
  gtm::Gtm* g = shards_[shard].get();
  if (g->IsPrepared(branch)) return g->AbortPrepared(branch);
  Result<gtm::TxnState> st = g->StateOf(branch);
  if (!st.ok()) return st.status();
  switch (st.value()) {
    case gtm::TxnState::kAborted:
      return Status::Ok();  // Idempotent.
    case gtm::TxnState::kCommitted:
      return Status::FailedPrecondition(StrFormat(
          "AbortBranch: shard %zu txn %llu already committed", shard,
          static_cast<unsigned long long>(branch)));
    default:
      return g->RequestAbort(branch);
  }
}

}  // namespace preserial::cluster
