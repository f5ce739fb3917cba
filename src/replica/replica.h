#ifndef PRESERIAL_REPLICA_REPLICA_H_
#define PRESERIAL_REPLICA_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "gtm/endpoint.h"
#include "gtm/gtm.h"
#include "gtm/policies.h"
#include "replica/log.h"
#include "replica/node.h"
#include "replica/ship.h"
#include "storage/constraint.h"
#include "storage/row.h"
#include "storage/schema.h"

namespace preserial::replica {

struct ReplicaOptions {
  size_t num_backups = 1;
  ShipOptions ship;
};

// What a promotion did. `sleeping_lost` counts Sleeping transactions the
// dead primary knew and the winner does not — always 0 under sync
// shipping, the bench's headline number under async.
struct PromotionReport {
  size_t new_primary = 0;
  uint64_t new_epoch = 0;
  uint64_t promoted_lsn = 0;       // Winner's applied LSN at promotion.
  uint64_t truncated_records = 0;  // Group-log suffix discarded by fencing.
  int64_t sleeping_at_failure = 0;
  int64_t sleeping_preserved = 0;
  int64_t sleeping_lost = 0;
  int64_t grant_events_synthesized = 0;
};

// A replica group behind the plain GtmEndpoint interface: one primary plus
// N backups, all replaying the same op log (src/replica/log.h). Sessions,
// runners and the cluster router cannot tell it from a single Gtm — until
// the primary dies, at which point every call returns kUnavailable
// (Begin: kInvalidTxnId) and the PR-1 retry/backoff machinery rides out
// the outage while a FailoverController promotes a backup.
//
// Externally synchronized; ReplicaService wraps it for real threads.
class ReplicatedGtm : public gtm::GtmEndpoint {
 public:
  ReplicatedGtm(const Clock* clock, gtm::GtmOptions gtm_options,
                ReplicaOptions options, Rng* ship_rng);

  // --- replicated bootstrap (DDL / bulk load / object registration) -------
  Status CreateTable(const std::string& table, storage::Schema schema);
  Status AddConstraint(const std::string& table,
                       storage::CheckConstraint constraint);
  Status InsertRow(const std::string& table, storage::Row row);
  Status RegisterObject(const gtm::ObjectId& id, const std::string& table,
                        const storage::Value& key,
                        std::vector<size_t> member_columns,
                        semantics::LogicalDependencies deps = {});

  // --- GtmEndpoint ---------------------------------------------------------
  TxnId Begin(int priority = 0) override;
  Status Invoke(TxnId txn, const gtm::ObjectId& object,
                semantics::MemberId member,
                const semantics::Operation& op) override;
  Result<storage::Value> ReadLocal(TxnId txn, const gtm::ObjectId& object,
                                   semantics::MemberId member) override;
  Status RequestCommit(TxnId txn) override;
  Status RequestAbort(TxnId txn) override;
  Status Sleep(TxnId txn) override;
  Status Awake(TxnId txn) override;
  Status InvokeOnce(TxnId txn, uint64_t seq, const gtm::ObjectId& object,
                    semantics::MemberId member,
                    const semantics::Operation& op) override;
  Status CommitOnce(TxnId txn, uint64_t seq) override;
  Status AbortOnce(TxnId txn, uint64_t seq) override;
  Status SleepOnce(TxnId txn, uint64_t seq) override;
  Status AwakeOnce(TxnId txn, uint64_t seq) override;
  Result<gtm::TxnState> StateOf(TxnId txn) const override;
  std::vector<gtm::GtmEvent> TakeEvents() override;
  std::vector<TxnId> AbortExpiredWaits(Duration max_wait) override;

  // --- 2PC branch surface (cluster::ShardBackend routes through these) ----
  Status Prepare(TxnId txn);
  Status CommitPrepared(TxnId txn);
  Status AbortPrepared(TxnId txn);

  // Replicated maintenance sweep (paper: disconnect detection).
  std::vector<TxnId> SleepIdleTransactions(Duration idle_timeout);

  // --- failure injection + failover ---------------------------------------
  void KillPrimary() { nodes_[primary_]->Kill(); }
  bool primary_alive() const { return nodes_[primary_]->alive(); }
  // Promotes the live backup with the highest applied LSN (see
  // FailoverController in failover.h). Fails while the primary is alive.
  Result<PromotionReport> Promote();

  // Async shipping round; refreshes the lag gauge. No-op in sync mode
  // (everything already shipped inline).
  Status Pump();

  // --- introspection -------------------------------------------------------
  size_t num_nodes() const { return nodes_.size(); }
  size_t primary_index() const { return primary_; }
  ReplicaNode* node(size_t i) { return nodes_[i].get(); }
  const ReplicaNode* node(size_t i) const { return nodes_[i].get(); }
  gtm::Gtm* primary_gtm() { return nodes_[primary_]->gtm(); }
  const gtm::Gtm* primary_gtm() const { return nodes_[primary_]->gtm(); }
  storage::Database* primary_db() { return nodes_[primary_]->db(); }
  uint64_t epoch() const { return epoch_; }
  const ReplicaLog& log() const { return log_; }
  LogShipper* shipper() { return &shipper_; }
  const LogShipper& shipper() const { return shipper_; }
  const ReplicaOptions& options() const { return options_; }

 private:
  friend class FailoverController;

  // Stamp, apply and frame on the primary, index the frame in the group
  // log, ship (sync).
  // Returns the transport status; the command's own reply lands in *reply.
  Status Run(ReplicaRecord* rec, Status* reply);
  Status RunReply(ReplicaRecord rec);
  Status Bootstrap(const storage::WalRecord& wr);
  void RebuildShipper();
  void UpdateLagGauge();

  const Clock* clock_;
  ReplicaOptions options_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  ReplicaLog log_;  // Indexes the serving node's image.
  LogShipper shipper_;
  size_t primary_ = 0;
  uint64_t epoch_ = 1;
  // Grant events synthesized at promotion, drained by the next TakeEvents.
  std::vector<gtm::GtmEvent> pending_events_;
};

}  // namespace preserial::replica

#endif  // PRESERIAL_REPLICA_REPLICA_H_
