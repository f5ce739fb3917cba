#ifndef PRESERIAL_REPLICA_LOG_H_
#define PRESERIAL_REPLICA_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "gtm/endpoint.h"
#include "semantics/operation.h"
#include "storage/value.h"
#include "storage/wal.h"

namespace preserial::replica {

// Command kinds in the replicated op log. One entry per externally issued,
// state-changing GTM decision; internal transitions (queue grants from
// PumpWaiters, reconciliation results) are derived deterministically by
// replaying these, so they are never logged.
enum class ReplicaOpKind : uint8_t {
  kBegin = 1,
  kInvoke = 2,
  kReadLocal = 3,  // Logged: a read grants a lock and materializes A_temp.
  kCommit = 4,     // RequestCommit (single-shard reconcile + commit).
  kAbort = 5,
  kSleep = 6,
  kAwake = 7,
  kPrepare = 8,  // 2PC phase 1: vote + park in Committing.
  kCommitPrepared = 9,
  kAbortPrepared = 10,
  kAbortExpiredWaits = 11,  // Maintenance sweeps are decisions too: their
  kSleepIdle = 12,          // victims must match on every replica.
  kRegisterObject = 13,
  // DDL / bulk load shipped as an embedded storage::WalRecord payload
  // (kCreateTable, kAddConstraint or kInsert), so the backup databases are
  // built through the same log that replays transactions against them.
  kBootstrap = 14,
};

const char* ReplicaOpKindName(ReplicaOpKind kind);

// One replicated command. `lsn` is 1-based and dense; `epoch` fences stale
// primaries; `time` is the primary's clock at decision time — replicas pin
// their replay clock to it before dispatching, so time-derived state
// (A_t_sleep, X_tc, last_activity) is bit-identical on every node and the
// paper's Algorithm 9 awake-check gives the same answer after a failover.
struct ReplicaRecord {
  uint64_t lsn = 0;
  uint64_t epoch = 0;
  TimePoint time = 0;
  ReplicaOpKind kind = ReplicaOpKind::kBegin;

  // kTrue for the idempotent *Once variants; `seq` is the client's
  // per-transaction request number. Replaying the command replays the
  // reply-cache update too, so dedup state survives failover.
  bool once = false;
  uint64_t seq = 0;

  // kBegin logs the id the primary allotted; replicas assert they derive
  // the same one (cheap divergence tripwire).
  TxnId txn = kInvalidTxnId;
  int priority = 0;

  gtm::ObjectId object;             // kInvoke / kReadLocal / kRegisterObject
  semantics::MemberId member = 0;   // kInvoke / kReadLocal
  semantics::Operation op;          // kInvoke
  Duration duration = 0;            // kAbortExpiredWaits / kSleepIdle

  // kRegisterObject.
  std::string table;
  storage::Value key;
  std::vector<uint64_t> member_columns;
  // LogicalDependencies::CanonicalPairs() wire form.
  std::vector<std::pair<uint64_t, uint64_t>> dep_pairs;

  // kBootstrap: an encoded storage::WalRecord.
  std::string bootstrap;

  // Payload bytes (no framing; storage::FramePayload adds the CRC frame).
  void EncodeTo(std::string* out) const;
  static Result<ReplicaRecord> DecodeFrom(std::string_view payload);
};

// A frame is storage::FramePayload's [u32 len][u32 crc32][payload] around one
// encoded ReplicaRecord. Verifies that `frame` is exactly one intact frame
// and returns its payload; kCorruption for a torn, flipped or overlong one.
Result<std::string_view> FramedPayload(std::string_view frame);

// The group's op log: the replication source of truth. It holds no records,
// only an LSN -> offset index over the serving node's framed byte log
// (ReplicaNode::log_storage()). Every node appends the primary's bytes
// verbatim, so every node's image is a byte-identical prefix of the
// primary's and the offsets hold on each of them. LSNs are 1-based and
// dense. Failover truncates the suffix the promoted backup never applied —
// those commands were acknowledged by a primary that is now fenced, and sync
// shipping guarantees the suffix is empty — and re-points the index at the
// winner's image.
class ReplicaLog {
 public:
  explicit ReplicaLog(const storage::MemoryWalStorage* image)
      : image_(image) {}

  uint64_t next_lsn() const { return ends_.size() + 1; }
  uint64_t last_lsn() const { return ends_.size(); }

  // Indexes the frame that ends at the image's current end as `lsn`, which
  // must equal next_lsn().
  Status Append(uint64_t lsn);

  // 1-based access; lsn must be in [1, last_lsn()]. Frame() is a view into
  // the image, valid until its next append; At() decodes it.
  std::string_view Frame(uint64_t lsn) const;
  ReplicaRecord At(uint64_t lsn) const;

  // Drops every entry after `new_last`; returns how many were dropped.
  uint64_t TruncateTo(uint64_t new_last);

  // Points the index at another node's image, which must end exactly where
  // the last indexed frame does.
  Status Repoint(const storage::MemoryWalStorage* image);

 private:
  uint64_t End() const { return ends_.empty() ? 0 : ends_.back(); }

  const storage::MemoryWalStorage* image_;
  std::vector<uint64_t> ends_;  // ends_[lsn - 1]: offset just past lsn's frame.
};

}  // namespace preserial::replica

#endif  // PRESERIAL_REPLICA_LOG_H_
