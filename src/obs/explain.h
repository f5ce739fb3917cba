#ifndef PRESERIAL_OBS_EXPLAIN_H_
#define PRESERIAL_OBS_EXPLAIN_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "gtm/managed_txn.h"
#include "gtm/txn_state.h"

// Introspection snapshots ("EXPLAIN the middleware"): plain-data dumps of a
// Gtm's live admission state, produced by Gtm::Explain() /
// GtmCluster::Explain(). The structs are header-only so the gtm and cluster
// layers can fill them without linking preserial_obs; the renderers live in
// obs/explain.cc.

namespace preserial::obs {

// One grant on an object: a member of its sharing set (X_pending entry) or
// a parked phase-1 voter (X_committing entry).
struct HolderInfo {
  TxnId txn = kInvalidTxnId;
  bool sleeping = false;    // In X_sleeping: holds copies, blocks nobody.
  bool committing = false;  // Prepared/committing rather than pending.
  // member -> operation class name, the ops this holder exercises.
  std::map<semantics::MemberId, std::string> ops;
};

// One queued invocation (X_waiting entry), FIFO position preserved.
struct WaitInfo {
  TxnId txn = kInvalidTxnId;
  semantics::MemberId member = 0;
  std::string op_class;
  TimePoint since = 0;  // Arrival (the paper's A_t_wait for this object).
  Duration waited = 0;
  int priority = 0;
};

// Live admission state of one object: its sharing set, wait queue, and the
// size of the commit summary the Algorithm 9 staleness check reads.
struct ObjectInfo {
  gtm::ObjectId id;
  std::vector<HolderInfo> holders;
  std::vector<WaitInfo> waiters;  // Queue order.
  std::vector<TxnId> sleeping;
  // Occupied X_committed summary slots, one per (member, class) that has
  // committed: at most members x 6.
  size_t committed_retained = 0;
};

// One live transaction.
struct TxnInfo {
  TxnId txn = kInvalidTxnId;
  gtm::TxnState state = gtm::TxnState::kActive;
  int priority = 0;
  TimePoint begin_time = 0;
  Duration age = 0;
  Duration total_wait_time = 0;
  Duration total_sleep_time = 0;
  int64_t ops_executed = 0;
  std::vector<gtm::ObjectId> involved;
};

// One edge of the waits-for graph, with the object that induces it.
struct WaitEdge {
  TxnId waiter = kInvalidTxnId;
  TxnId holder = kInvalidTxnId;
  gtm::ObjectId object;
};

// The Algorithm 9 verdict for one Sleeping transaction, evaluated *now*
// without waking it: would Awake() abort, and why? A verdict can flip back
// to "survives" if the blocker is a live holder that later aborts, but a
// committed blocker (X_tc > A_t_sleep) is permanent.
struct SleeperVerdict {
  TxnId txn = kInvalidTxnId;
  TimePoint sleep_since = 0;  // A_t_sleep.
  Duration asleep_for = 0;
  bool will_abort = false;
  // Set when will_abort: where and who.
  gtm::ObjectId object;
  TxnId blocker = kInvalidTxnId;
  // X_tc of a committed blocker; 0 when the blocker is a live holder.
  TimePoint blocker_commit_time = 0;
  std::string reason;
};

// Full snapshot of one Gtm (one shard of a cluster, or a standalone GTM).
struct GtmExplain {
  TimePoint now = 0;
  int shard = -1;  // From the Gtm's TraceLog default shard; -1 = unsharded.
  std::vector<ObjectInfo> objects;  // Only objects with live state.
  std::vector<TxnInfo> txns;        // Only live transactions.
  std::vector<WaitEdge> wait_edges;
  std::vector<SleeperVerdict> sleepers;

  // Verdict lookup; null when `txn` is not Sleeping here.
  const SleeperVerdict* VerdictFor(TxnId txn) const;

  // Multi-line human-readable rendering.
  std::string ToString() const;
};

// Cluster-wide snapshot: one GtmExplain per shard (primary Gtm of each
// replica group when replicated), shard ids stamped.
struct ClusterExplain {
  TimePoint now = 0;
  std::vector<GtmExplain> shards;

  std::string ToString() const;
};

}  // namespace preserial::obs

#endif  // PRESERIAL_OBS_EXPLAIN_H_
