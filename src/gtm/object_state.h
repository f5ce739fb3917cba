#ifndef PRESERIAL_GTM_OBJECT_STATE_H_
#define PRESERIAL_GTM_OBJECT_STATE_H_

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "gtm/managed_txn.h"
#include "semantics/compatibility.h"
#include "semantics/operation.h"
#include "storage/value.h"

namespace preserial::gtm {

// Operation classes a transaction exercises on an object, per member.
using MemberOps = std::map<semantics::MemberId, semantics::OpClass>;

// A queued invocation (an entry of the paper's X_waiting). The queue is
// ordered by (priority desc, arrival asc): FIFO within a priority band.
struct WaitEntry {
  TxnId txn = kInvalidTxnId;
  semantics::MemberId member = 0;
  semantics::Operation op;
  TimePoint arrival = 0;  // The paper's A_t_wait for this object.
  int priority = 0;
};

// A committed transaction's trace on the object (needed by the awake rule:
// X_tc, with the classes it used).
struct CommittedEntry {
  TxnId txn = kInvalidTxnId;
  TimePoint commit_time = 0;  // The paper's X_tc for this transaction.
  MemberOps ops;
};

// Per-object GTM state — the paper's X_permanent, X_pending, X_waiting,
// X_committing, X_committed, X_aborting, X_sleeping, X_read, X_new, X_tc,
// plus the binding of members to LDBS cells.
//
// Internal record of the Gtm (not part of the public API surface); fields
// are open and the Gtm maintains the invariants.
struct ObjectState {
  ObjectId id;

  // --- binding to the data layer -------------------------------------------
  std::string table;
  storage::Value key;
  // member m lives in column member_columns[m] of `table`.
  std::vector<size_t> member_columns;
  // Logical-dependence relaxation across members (paper Sec. IV).
  semantics::LogicalDependencies deps;

  // --- replicated committed state ------------------------------------------
  // X_permanent, one value per member, kept coherent with the LDBS by the
  // SST executor (all writes to bound cells flow through the GTM).
  std::vector<storage::Value> permanent;

  // --- admission state -------------------------------------------------------
  std::map<TxnId, MemberOps> pending;     // Granted, operating on copies.
  std::deque<WaitEntry> waiting;          // FIFO.
  std::map<TxnId, MemberOps> committing;  // Local commit done, SST running.
  // X_committed with commit times (X_tc), in commit order, so X_tc is
  // non-decreasing front to back. Each commit on the object drops the
  // entries at or below its sleeper watermark (ForgetCommittedThrough).
  std::deque<CommittedEntry> committed;
  std::set<TxnId> aborting;
  std::set<TxnId> sleeping;               // Subset of pending/waiting txns.

  // --- per-transaction snapshots -------------------------------------------
  // X_read: value seen at grant time; X_new: reconciled value to install.
  std::map<TxnId, std::map<semantics::MemberId, storage::Value>> read;
  std::map<TxnId, std::map<semantics::MemberId, storage::Value>> new_values;

  size_t num_members() const { return member_columns.size(); }

  bool IsPending(TxnId txn) const { return pending.count(txn) > 0; }
  bool IsWaiting(TxnId txn) const;
  bool IsSleeping(TxnId txn) const { return sleeping.count(txn) > 0; }

  // The classes `txn` currently holds or has requested on this object
  // (pending ops, else its queued wait entries).
  MemberOps OpsOf(TxnId txn) const;

  // Removes every trace of txn from the admission state (used by abort).
  void Erase(TxnId txn);

  // Drops the committed entries with X_tc <= `watermark` from the front of
  // `committed`. Algorithm 9 aborts a sleeper only on X_tc > A_t_sleep, so
  // with `watermark` at most the earliest A_t_sleep of any sleeper that can
  // still wake here, no dropped entry can ever doom anyone.
  void ForgetCommittedThrough(TimePoint watermark);
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_OBJECT_STATE_H_
