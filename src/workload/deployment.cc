#include "workload/deployment.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/export.h"

namespace preserial::workload {

Status LoadTable(storage::Database* db, const TableSetup& table) {
  Status s = db->CreateTable(table.name, table.schema).status();
  for (size_t i = 0; i < table.rows.size() && s.ok(); ++i) {
    s = db->InsertRow(table.name, table.rows[i].second);
  }
  if (s.ok() && table.constraint) {
    s = db->AddConstraint(table.name, *table.constraint);
  }
  return s;
}

std::unique_ptr<storage::Database> OpenDatabase(
    const std::vector<TableSetup>& tables) {
  auto db = std::make_unique<storage::Database>();
  Status s = db->Open().status();
  for (size_t i = 0; i < tables.size() && s.ok(); ++i) {
    s = LoadTable(db.get(), tables[i]);
  }
  PRESERIAL_CHECK(s.ok()) << s.ToString();
  return db;
}

Deployment::Deployment(const Topology& topology,
                       const gtm::GtmOptions& options, uint64_t seed,
                       Duration wait_timeout)
    // The ship link draws from its own stream so the planned arrivals stay
    // fixed across ship modes (paired comparisons).
    : ship_rng_(seed ^ 0xbf58476d1ce4e5b9ull) {
  gtm::GtmEndpoint* endpoint = nullptr;
  if (const auto* sharded = std::get_if<ShardedTopology>(&topology)) {
    cluster_ = std::make_unique<cluster::GtmCluster>(sharded->num_shards,
                                                     sim_.clock(), options);
    for (size_t sh = 0; sh < sharded->num_shards; ++sh) {
      dbs_.push_back(cluster_->db(sh));
      gtms_.push_back(cluster_->shard(sh));
    }
    coordinator_ = std::make_unique<cluster::ClusterCoordinator>(
        cluster_.get(), &coordinator_wal_);
    router_ = std::make_unique<cluster::GtmRouter>(
        cluster_.get(), coordinator_.get(), sim_.clock());
    coordinator_->EnableTracing(router_->trace(), sim_.clock());
    endpoint = router_.get();
  } else if (const auto* replicated =
                 std::get_if<ReplicatedTopology>(&topology)) {
    replica::ReplicaOptions ropts;
    ropts.num_backups = replicated->num_backups;
    ropts.ship = replicated->ship;
    group_ = std::make_unique<replica::ReplicatedGtm>(sim_.clock(), options,
                                                      ropts, &ship_rng_);
    endpoint = group_.get();
  } else {
    Result<storage::RecoveryStats> opened = db_.Open();
    PRESERIAL_CHECK(opened.ok());
    single_ = std::make_unique<gtm::Gtm>(&db_, sim_.clock(), options);
    dbs_.push_back(&db_);
    gtms_.push_back(single_.get());
    endpoint = single_.get();
  }
  runner_ = std::make_unique<GtmRunner>(endpoint, &sim_, wait_timeout);
}

void Deployment::Load(const TableSetup& table) {
  const std::string& name = table.name;
  Status s;
  if (group_ != nullptr) {
    s = group_->CreateTable(name, table.schema);
    for (size_t i = 0; i < table.rows.size() && s.ok(); ++i) {
      s = group_->InsertRow(name, table.rows[i].second);
    }
    if (s.ok() && table.constraint) {
      s = group_->AddConstraint(name, *table.constraint);
    }
  } else {
    for (size_t sh = 0; sh < dbs_.size() && s.ok(); ++sh) {
      s = dbs_[sh]->CreateTable(name, table.schema).status();
    }
    for (size_t i = 0; i < table.rows.size() && s.ok(); ++i) {
      const auto& [object, row] = table.rows[i];
      s = dbs_[ShardOf(object)]->InsertRow(name, row);
    }
    for (size_t sh = 0; sh < dbs_.size() && s.ok() && table.constraint;
         ++sh) {
      s = dbs_[sh]->AddConstraint(name, *table.constraint);
    }
  }
  const size_t key = table.schema.primary_key();
  for (size_t i = 0; i < table.rows.size() && s.ok(); ++i) {
    const auto& [object, row] = table.rows[i];
    s = group_ != nullptr
            ? group_->RegisterObject(object, name, row.at(key), table.members,
                                     table.deps)
            : gtms_[ShardOf(object)]->RegisterObject(
                  object, name, row.at(key), table.members, table.deps);
  }
  PRESERIAL_CHECK(s.ok()) << s.ToString();
}

std::vector<gtm::Gtm*> Deployment::Lanes() {
  if (group_ == nullptr) return gtms_;
  std::vector<gtm::Gtm*> nodes;
  for (size_t n = 0; n < group_->num_nodes(); ++n) {
    nodes.push_back(group_->node(n)->gtm());
  }
  return nodes;
}

void Deployment::Observe(size_t trace_capacity, size_t history_capacity) {
  tracing_ = trace_capacity > 0;
  if (tracing_) {
    for (gtm::Gtm* g : Lanes()) g->trace()->Enable(trace_capacity);
    if (router_ != nullptr) router_->trace()->Enable(trace_capacity);
    runner_->client_trace()->Enable(trace_capacity);
  }
  recording_ = history_capacity > 0;
  if (!recording_) return;
  const size_t capacity = std::max(history_capacity, trace_capacity);
  if (cluster_ != nullptr) {
    cluster_recorder_.Attach(cluster_.get(), capacity);
  } else if (group_ != nullptr) {
    group_recorder_.Attach(group_.get(), capacity);
  } else {
    recorder_.Attach(single_.get(), capacity);
  }
}

size_t Deployment::ShardOf(const gtm::ObjectId& object) const {
  return cluster_ != nullptr ? cluster_->ShardOf(object) : 0;
}

storage::Value Deployment::ReadCell(const gtm::ObjectId& object,
                                    const std::string& table,
                                    const storage::Value& key, size_t column) {
  storage::Database* db =
      group_ != nullptr ? group_->primary_db() : dbs_[ShardOf(object)];
  Result<storage::Table*> t = db->GetTable(table);
  PRESERIAL_CHECK(t.ok()) << t.status().ToString();
  Result<storage::Value> v = t.value()->GetColumnByKey(key, column);
  PRESERIAL_CHECK(v.ok()) << v.status().ToString();
  return v.value();
}

void Deployment::Finish(GtmExperimentResult* result) {
  result->run = runner_->Run();
  // One snapshot per shard; a replica group's shard is its primary.
  for (gtm::Gtm* g : group_ != nullptr
                         ? std::vector<gtm::Gtm*>{group_->primary_gtm()}
                         : gtms_) {
    result->shard_snapshots.push_back(g->metrics().TakeSnapshot());
    result->snapshot.MergeFrom(result->shard_snapshots.back());
  }
  if (cluster_ != nullptr) {
    result->coordinator = coordinator_->counters();
    result->router_committed = router_->committed();
    result->router_aborted = router_->aborted();
  }
  if (recording_) {
    if (cluster_ != nullptr) {
      result->histories = cluster_recorder_.Finish();
    } else {
      result->histories.push_back(group_ != nullptr ? group_recorder_.Finish()
                                                    : recorder_.Finish());
    }
  }
  if (tracing_) {
    // Lanes in merge order: GTMs by shard or node, router, client.
    std::vector<const gtm::TraceLog*> logs;
    for (gtm::Gtm* g : Lanes()) logs.push_back(g->trace());
    if (router_ != nullptr) logs.push_back(router_->trace());
    logs.push_back(runner_->client_trace());
    result->trace_events = obs::MergeEvents(logs);
  }
}

}  // namespace preserial::workload
