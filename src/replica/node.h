#ifndef PRESERIAL_REPLICA_NODE_H_
#define PRESERIAL_REPLICA_NODE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "gtm/gtm.h"
#include "gtm/policies.h"
#include "replica/log.h"
#include "storage/database.h"
#include "storage/wal.h"

namespace preserial::replica {

enum class ReplicaRole { kPrimary, kBackup };

// One replica of the GTM state machine: a private database + Gtm pair
// driven exclusively by ReplicaRecords. The replay clock is pinned to each
// record's timestamp before dispatch, so every node derives identical
// timestamps (A_t_sleep, X_tc) and identical TxnIds — the primary is just
// the replica whose dispatch happens first and whose replies clients see.
//
// Each node keeps its record log as framed bytes (storage::FramePayload,
// the database WAL's CRC framing) in log_storage(). The primary encodes and
// frames each record once, after dispatch; backups append the primary's
// frames verbatim, so every node's image is byte-identical.
//
// Externally synchronized, like Gtm itself (ReplicaService adds the lock).
class ReplicaNode {
 public:
  ReplicaNode(std::string name, gtm::GtmOptions options);

  // Primary path: applies `rec` (lsn, epoch and time already stamped),
  // then frames it and appends the frame to the log. A Begin's allotted
  // id is written into rec->txn before framing, so every backup checks it
  // derives the same one. Returns kUnavailable while down.
  Status Lead(ReplicaRecord* rec);

  // Transport-level apply of one shipped frame: verifies its length and
  // CRC, decodes it, checks its epoch and LSN, then appends the same bytes
  // to the log and dispatches. Returns:
  //   Ok                  — applied, or an already-applied LSN (idempotent
  //                         duplicate; counted, not re-dispatched).
  //   kUnavailable        — node is down.
  //   kCorruption         — the frame or its record does not decode; the
  //                         node is unchanged.
  //   kFailedPrecondition — stale epoch (fenced) or an LSN gap; the shipper
  //                         re-syncs from last_applied() + 1.
  // The command's own reply (kWaiting, kDeadlock, ...) is last_reply().
  Status Apply(std::string_view frame);

  // Command-level result of the most recent dispatched record.
  const Status& last_reply() const { return last_reply_; }
  TxnId last_begin() const { return last_begin_; }
  const storage::Value& last_value() const { return last_value_; }
  const std::vector<TxnId>& last_txns() const { return last_txns_; }

  // Crash-restart: wipes the in-memory state machines and replays the
  // log. A torn final record (crash mid-append) is dropped and the log is
  // rewritten to the clean prefix. Returns the last durable LSN.
  Result<uint64_t> Restart();

  bool alive() const { return alive_; }
  void Kill() { alive_ = false; }

  ReplicaRole role() const { return role_; }
  void set_role(ReplicaRole role) { role_ = role; }

  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

  uint64_t last_applied() const { return last_applied_; }
  int64_t duplicates_applied() const { return duplicates_applied_; }
  int64_t fenced_rejections() const { return fenced_rejections_; }

  const std::string& name() const { return name_; }
  gtm::Gtm* gtm() { return gtm_.get(); }
  const gtm::Gtm* gtm() const { return gtm_.get(); }
  storage::Database* db() { return db_.get(); }
  storage::MemoryWalStorage* log_storage() { return &log_storage_; }
  ManualClock* replay_clock() { return &clock_; }

 private:
  // Fences a stale epoch and orders by LSN: true for the next record, false
  // for an already-applied one.
  Result<bool> Admit(const ReplicaRecord& rec);
  void Execute(const ReplicaRecord& rec);
  Status Dispatch(const ReplicaRecord& rec);
  void ResetStateMachines();

  std::string name_;
  gtm::GtmOptions options_;
  storage::MemoryWalStorage log_storage_;
  std::string payload_;  // Lead's encode and frame buffers, reused.
  std::string frame_;
  ManualClock clock_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<gtm::Gtm> gtm_;

  ReplicaRole role_ = ReplicaRole::kBackup;
  bool alive_ = true;
  uint64_t epoch_ = 0;
  uint64_t last_applied_ = 0;
  int64_t duplicates_applied_ = 0;
  int64_t fenced_rejections_ = 0;

  Status last_reply_ = Status::Ok();
  TxnId last_begin_ = kInvalidTxnId;
  storage::Value last_value_;
  std::vector<TxnId> last_txns_;
};

}  // namespace preserial::replica

#endif  // PRESERIAL_REPLICA_NODE_H_
