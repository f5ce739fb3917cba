#include "replica/replica.h"

#include <utility>

#include "common/strings.h"
#include "gtm/metrics.h"
#include "gtm/trace.h"
#include "replica/failover.h"
#include "storage/wal.h"

namespace preserial::replica {

namespace {

std::vector<std::unique_ptr<ReplicaNode>> MakeNodes(
    size_t n, const gtm::GtmOptions& options) {
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  nodes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<ReplicaNode>(StrFormat("replica-%zu", i), options));
  }
  return nodes;
}

}  // namespace

ReplicatedGtm::ReplicatedGtm(const Clock* clock, gtm::GtmOptions gtm_options,
                             ReplicaOptions options, Rng* ship_rng)
    : clock_(clock),
      options_(options),
      nodes_(MakeNodes(1 + options.num_backups, gtm_options)),
      log_(nodes_[0]->log_storage()),
      shipper_(&log_, options.ship, ship_rng) {
  nodes_[0]->set_role(ReplicaRole::kPrimary);
  for (size_t i = 1; i < nodes_.size(); ++i) {
    shipper_.AddBackup(nodes_[i].get());
  }
}

void ReplicatedGtm::UpdateLagGauge() {
  gtm::GtmCounters& c = primary_gtm()->metrics().counters();
  c.replication_lag_records = static_cast<int64_t>(shipper_.Lag());
  // One group has one shipper, so both gauges read the same here; they
  // diverge when snapshots merge across groups (sum vs worst group).
  c.replication_lag_max_records = c.replication_lag_records;
}

Status ReplicatedGtm::Run(ReplicaRecord* rec, Status* reply) {
  ReplicaNode* primary = nodes_[primary_].get();
  if (!primary->alive()) {
    return Status::Unavailable("replica: primary is down");
  }
  rec->lsn = log_.next_lsn();
  rec->epoch = epoch_;
  rec->time = clock_->Now();
  PRESERIAL_RETURN_IF_ERROR(primary->Lead(rec));
  *reply = primary->last_reply();
  PRESERIAL_RETURN_IF_ERROR(log_.Append(rec->lsn));
  gtm::TraceLog* trace = primary->gtm()->trace();
  if (trace->enabled()) {
    trace->Record(rec->time, gtm::TraceEventKind::kShip, rec->txn, rec->object,
                  StrFormat("lsn=%llu %s",
                            static_cast<unsigned long long>(rec->lsn),
                            ReplicaOpKindName(rec->kind)));
  }
  if (options_.ship.mode == ShipMode::kSync) {
    PRESERIAL_RETURN_IF_ERROR(shipper_.ShipAll());
    if (trace->enabled()) {
      trace->Record(rec->time, gtm::TraceEventKind::kShipAck, rec->txn, "",
                    StrFormat("acked=%llu", static_cast<unsigned long long>(
                                                shipper_.MinAckedLsn())));
    }
  }
  UpdateLagGauge();
  return Status::Ok();
}

Status ReplicatedGtm::RunReply(ReplicaRecord rec) {
  Status reply = Status::Ok();
  PRESERIAL_RETURN_IF_ERROR(Run(&rec, &reply));
  return reply;
}

Status ReplicatedGtm::Bootstrap(const storage::WalRecord& wr) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kBootstrap;
  wr.EncodeTo(&rec.bootstrap);
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::CreateTable(const std::string& table,
                                  storage::Schema schema) {
  storage::WalRecord wr;
  wr.type = storage::WalRecordType::kCreateTable;
  wr.table = table;
  wr.schema = std::move(schema);
  return Bootstrap(wr);
}

Status ReplicatedGtm::AddConstraint(const std::string& table,
                                    storage::CheckConstraint constraint) {
  storage::WalRecord wr;
  wr.type = storage::WalRecordType::kAddConstraint;
  wr.table = table;
  wr.constraint = std::move(constraint);
  return Bootstrap(wr);
}

Status ReplicatedGtm::InsertRow(const std::string& table, storage::Row row) {
  storage::WalRecord wr;
  wr.type = storage::WalRecordType::kInsert;
  wr.table = table;
  wr.row = std::move(row);
  return Bootstrap(wr);
}

Status ReplicatedGtm::RegisterObject(const gtm::ObjectId& id,
                                     const std::string& table,
                                     const storage::Value& key,
                                     std::vector<size_t> member_columns,
                                     semantics::LogicalDependencies deps) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kRegisterObject;
  rec.object = id;
  rec.table = table;
  rec.key = key;
  rec.member_columns.assign(member_columns.begin(), member_columns.end());
  for (const auto& [a, b] : deps.CanonicalPairs()) {
    rec.dep_pairs.emplace_back(a, b);
  }
  return RunReply(std::move(rec));
}

TxnId ReplicatedGtm::Begin(int priority) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kBegin;
  rec.priority = priority;
  Status reply = Status::Ok();
  if (!Run(&rec, &reply).ok() || !reply.ok()) return kInvalidTxnId;
  return nodes_[primary_]->last_begin();
}

Status ReplicatedGtm::Invoke(TxnId txn, const gtm::ObjectId& object,
                             semantics::MemberId member,
                             const semantics::Operation& op) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kInvoke;
  rec.txn = txn;
  rec.object = object;
  rec.member = member;
  rec.op = op;
  return RunReply(std::move(rec));
}

Result<storage::Value> ReplicatedGtm::ReadLocal(TxnId txn,
                                                const gtm::ObjectId& object,
                                                semantics::MemberId member) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kReadLocal;
  rec.txn = txn;
  rec.object = object;
  rec.member = member;
  PRESERIAL_RETURN_IF_ERROR(RunReply(std::move(rec)));
  return nodes_[primary_]->last_value();
}

Status ReplicatedGtm::RequestCommit(TxnId txn) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kCommit;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::RequestAbort(TxnId txn) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kAbort;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::Sleep(TxnId txn) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kSleep;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::Awake(TxnId txn) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kAwake;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::InvokeOnce(TxnId txn, uint64_t seq,
                                 const gtm::ObjectId& object,
                                 semantics::MemberId member,
                                 const semantics::Operation& op) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kInvoke;
  rec.once = true;
  rec.seq = seq;
  rec.txn = txn;
  rec.object = object;
  rec.member = member;
  rec.op = op;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::CommitOnce(TxnId txn, uint64_t seq) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kCommit;
  rec.once = true;
  rec.seq = seq;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::AbortOnce(TxnId txn, uint64_t seq) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kAbort;
  rec.once = true;
  rec.seq = seq;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::SleepOnce(TxnId txn, uint64_t seq) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kSleep;
  rec.once = true;
  rec.seq = seq;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::AwakeOnce(TxnId txn, uint64_t seq) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kAwake;
  rec.once = true;
  rec.seq = seq;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Result<gtm::TxnState> ReplicatedGtm::StateOf(TxnId txn) const {
  const ReplicaNode* primary = nodes_[primary_].get();
  if (!primary->alive()) {
    return Status::Unavailable("replica: primary is down");
  }
  return primary->gtm()->StateOf(txn);
}

std::vector<gtm::GtmEvent> ReplicatedGtm::TakeEvents() {
  std::vector<gtm::GtmEvent> out = std::move(pending_events_);
  pending_events_.clear();
  ReplicaNode* primary = nodes_[primary_].get();
  if (primary->alive()) {
    for (gtm::GtmEvent& e : primary->gtm()->TakeEvents()) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

std::vector<TxnId> ReplicatedGtm::AbortExpiredWaits(Duration max_wait) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kAbortExpiredWaits;
  rec.duration = max_wait;
  if (!RunReply(std::move(rec)).ok()) return {};
  return nodes_[primary_]->last_txns();
}

std::vector<TxnId> ReplicatedGtm::SleepIdleTransactions(
    Duration idle_timeout) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kSleepIdle;
  rec.duration = idle_timeout;
  if (!RunReply(std::move(rec)).ok()) return {};
  return nodes_[primary_]->last_txns();
}

Status ReplicatedGtm::Prepare(TxnId txn) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kPrepare;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::CommitPrepared(TxnId txn) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kCommitPrepared;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::AbortPrepared(TxnId txn) {
  ReplicaRecord rec;
  rec.kind = ReplicaOpKind::kAbortPrepared;
  rec.txn = txn;
  return RunReply(std::move(rec));
}

Status ReplicatedGtm::Pump() {
  if (options_.ship.mode == ShipMode::kSync) return Status::Ok();
  if (!primary_alive()) return Status::Ok();
  PRESERIAL_RETURN_IF_ERROR(shipper_.Pump());
  gtm::TraceLog* trace = primary_gtm()->trace();
  if (trace->enabled()) {
    trace->Record(clock_->Now(), gtm::TraceEventKind::kShipAck, kInvalidTxnId,
                  "",
                  StrFormat("acked=%llu", static_cast<unsigned long long>(
                                              shipper_.MinAckedLsn())));
  }
  UpdateLagGauge();
  return Status::Ok();
}

void ReplicatedGtm::RebuildShipper() {
  shipper_.ClearBackups();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i == primary_ || !nodes_[i]->alive()) continue;
    shipper_.AddBackup(nodes_[i].get());
  }
}

Result<PromotionReport> ReplicatedGtm::Promote() {
  FailoverController controller(this);
  return controller.Promote();
}

}  // namespace preserial::replica
