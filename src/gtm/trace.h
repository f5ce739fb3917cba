#ifndef PRESERIAL_GTM_TRACE_H_
#define PRESERIAL_GTM_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "semantics/operation.h"

namespace preserial::gtm {

// Kinds of middleware events recorded by the trace (one per externally
// visible transition of the paper's state machines).
enum class TraceEventKind {
  kBegin,
  kGrant,        // Invocation admitted (immediately or from the queue).
  kApply,        // An operation mutated the virtual copy (every success).
  kWait,         // Invocation queued.
  kPrepare,      // Phase-1 vote of a cross-shard commit (parked Committing).
  kCommit,
  kAbort,
  kSleep,
  kAwake,
  kAwakeAbort,
  kDeadlockRefusal,
  kAdmissionDenial,  // Constraint-aware admission refused an operation.
  kDuplicateSuppressed,  // Retried request answered from the reply cache.
  // Replication (src/replica/). Recorded against the primary's trace.
  kShip,     // A log record left the primary for a backup.
  kShipAck,  // A backup's cumulative ack advanced.
  kPromote,  // A backup was promoted to primary (recorded on the winner).
  // Client transport (src/mobile/). Recorded against the client's TraceLog.
  kClientSend,       // A logical request was issued (first attempt).
  kClientRetry,      // A silent attempt timed out; backed off and resent.
  kClientDegrade,    // Retry budget exhausted; degrading to Sleep.
  kClientReconnect,  // Back online: Awake + resend of the pending request.
  // Cluster (src/cluster/). Recorded against the router's TraceLog.
  kBranchBegin,   // Router opened a branch of a global txn on a shard.
  kTwoPcPrepare,  // Coordinator started phase 1 for a global commit.
  kTwoPcCommit,   // Coordinator decided commit and drove phase 2.
  kTwoPcAbort,    // Coordinator decided abort and drove phase 2.
  // Observability (src/obs/).
  kWatchdog,  // Slow-txn/long-sleep threshold tripped; Explain emitted.
};

// Number of TraceEventKind values. Keep last: the static_assert in trace.cc
// and the obs exhaustiveness test both key off it, so a new kind without a
// TraceEventKindName entry fails loudly instead of rendering as "?".
inline constexpr size_t kTraceEventKindCount =
    static_cast<size_t>(TraceEventKind::kWatchdog) + 1;

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  TimePoint time = 0;
  TraceEventKind kind = TraceEventKind::kBegin;
  TxnId txn = kInvalidTxnId;
  std::string object;  // Empty for transaction-level events.
  std::string detail;
  // Correlation fields, stamped by TraceLog::Record from the thread's
  // ambient obs::TraceContext (zero when recorded outside any SpanScope)
  // and the log's default shard (-1 for unsharded deployments).
  uint64_t trace = 0;
  uint64_t span = 0;
  uint64_t parent = 0;
  int shard = -1;
  // Structured operation payload, present when has_op (kApply always; kGrant
  // and kWait when recorded through RecordOp). Offline checkers reconstruct
  // per-member effects from these instead of parsing `detail`.
  bool has_op = false;
  semantics::MemberId member = 0;
  semantics::Operation op;

  std::string ToString() const;
};

// Bounded ring buffer of middleware events. Disabled (capacity 0) by
// default so the hot path stays allocation-free; enable for debugging,
// audits, or the examples' --trace output. The ring grows as events arrive
// and starts overwriting the oldest only once it holds `capacity` of them,
// so a generous capacity costs nothing until it is used.
class TraceLog {
 public:
  TraceLog() = default;

  void Enable(size_t capacity);
  void Disable() { Enable(0); }
  bool enabled() const { return capacity_ > 0; }

  void Record(TimePoint time, TraceEventKind kind, TxnId txn,
              std::string object = "", std::string detail = "");

  // Record() plus the structured (member, op) payload; sets has_op so
  // history checkers can replay the operation exactly.
  void RecordOp(TimePoint time, TraceEventKind kind, TxnId txn,
                std::string object, semantics::MemberId member,
                const semantics::Operation& op, std::string detail = "");

  // Events in chronological order (oldest first), up to capacity.
  std::vector<TraceEvent> Snapshot() const;
  // Events of one transaction, chronological.
  std::vector<TraceEvent> ForTxn(TxnId txn) const;

  // Shard id stamped on every event this log records (a cluster stamps each
  // shard's Gtm trace at construction). -1 = not part of a sharded cluster.
  void set_default_shard(int shard) { default_shard_ = shard; }
  int default_shard() const { return default_shard_; }

  size_t size() const { return ring_.size(); }
  int64_t total_recorded() const { return total_recorded_; }
  void Clear();

  // Multi-line rendering of Snapshot().
  std::string Dump() const;

 private:
  // Counts the event and, when enabled, stores it with the ambient context
  // stamped on; returns the stored event, or null when disabled.
  TraceEvent* Append(TimePoint time, TraceEventKind kind, TxnId txn,
                     std::string object, std::string detail);

  std::vector<TraceEvent> ring_;  // Live entries (<= capacity).
  size_t capacity_ = 0;
  size_t next_ = 0;   // Slot for the next write.
  int64_t total_recorded_ = 0;
  int default_shard_ = -1;
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_TRACE_H_
