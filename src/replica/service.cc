#include "replica/service.h"

#include <utility>

namespace preserial::replica {

ReplicaService::ReplicaService(gtm::GtmOptions gtm_options,
                               ReplicaOptions options, uint64_t ship_seed)
    : ship_rng_(ship_seed),
      group_(&clock_, gtm_options, options, &ship_rng_) {}

Status ReplicaService::CreateTable(const std::string& table,
                                   storage::Schema schema) {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.CreateTable(table, std::move(schema));
}

Status ReplicaService::InsertRow(const std::string& table, storage::Row row) {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.InsertRow(table, std::move(row));
}

Status ReplicaService::RegisterObject(const gtm::ObjectId& id,
                                      const std::string& table,
                                      const storage::Value& key,
                                      std::vector<size_t> member_columns,
                                      semantics::LogicalDependencies deps) {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.RegisterObject(id, table, key, std::move(member_columns),
                               std::move(deps));
}

TxnId ReplicaService::Begin(int priority) {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.Begin(priority);
}

Status ReplicaService::InvokeOnce(TxnId txn, uint64_t seq,
                                  const gtm::ObjectId& object,
                                  semantics::MemberId member,
                                  const semantics::Operation& op) {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.InvokeOnce(txn, seq, object, member, op);
}

Status ReplicaService::CommitOnce(TxnId txn, uint64_t seq) {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.CommitOnce(txn, seq);
}

Status ReplicaService::Pump() {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.Pump();
}

void ReplicaService::KillPrimary() {
  std::lock_guard<std::mutex> lk(mu_);
  group_.KillPrimary();
}

Result<PromotionReport> ReplicaService::Promote() {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.Promote();
}

uint64_t ReplicaService::ReplicationLag() {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.shipper()->Lag();
}

uint64_t ReplicaService::Epoch() {
  std::lock_guard<std::mutex> lk(mu_);
  return group_.epoch();
}

}  // namespace preserial::replica
