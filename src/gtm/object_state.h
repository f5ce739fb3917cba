#ifndef PRESERIAL_GTM_OBJECT_STATE_H_
#define PRESERIAL_GTM_OBJECT_STATE_H_

#include <array>
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

// The latest commit of one (member, class) pair on an object.
struct LastCommit {
  TxnId txn = kInvalidTxnId;  // kInvalidTxnId: no commit of the pair yet.
  TimePoint commit_time = 0;  // The paper's X_tc for this transaction.
};

// X_committed, summarised for the awake rule: the latest commit of each
// (member, Table I class). Algorithm 9 needs only whether some conflicting
// commit has X_tc > A_t_sleep, and the latest commit of its (member,
// class) has the largest X_tc, so the summary answers it exactly.
class CommitSummary {
 public:
  CommitSummary() = default;
  explicit CommitSummary(size_t num_members) : slots_(num_members) {}

  void Record(semantics::MemberId member, semantics::OpClass cls, TxnId txn,
              TimePoint commit_time) {
    slots_[member][static_cast<size_t>(cls)] = LastCommit{txn, commit_time};
  }
  const LastCommit& Latest(semantics::MemberId member,
                           semantics::OpClass cls) const {
    return slots_[member][static_cast<size_t>(cls)];
  }
  // Occupied slots: the Algorithm 9 state size, at most members x 6.
  size_t size() const;

 private:
  std::vector<std::array<LastCommit, semantics::kNumOpClasses>> slots_;
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
  // X_committed as its latest X_tc per (member, class); sized at
  // registration, written by each commit.
  CommitSummary committed;
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
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_OBJECT_STATE_H_
