#ifndef PRESERIAL_GTM_MANAGED_TXN_H_
#define PRESERIAL_GTM_MANAGED_TXN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "gtm/txn_state.h"
#include "semantics/operation.h"
#include "storage/value.h"

namespace preserial::gtm {

// Identifier of a GTM-managed object (the paper's X). By convention
// "<table>/<key>" for objects bound to database rows.
using ObjectId = std::string;

struct ObjectState;

// (object, member) coordinate of a virtual-copy cell.
struct Cell {
  ObjectId object;
  semantics::MemberId member = 0;

  friend bool operator<(const Cell& a, const Cell& b) {
    if (a.object != b.object) return a.object < b.object;
    return a.member < b.member;
  }
  friend bool operator==(const Cell& a, const Cell& b) {
    return a.object == b.object && a.member == b.member;
  }
};

// Per-transaction GTM state (the paper's A_state, A_temp, A_t_sleep,
// A_t_wait) of a live transaction. Owned by the Gtm, which frees it at
// commit or abort; callers hold TxnIds.
class ManagedTxn {
 public:
  ManagedTxn(TxnId id, TimePoint now, int priority = 0)
      : id_(id),
        state_(TxnState::kActive),
        begin_time_(now),
        priority_(priority),
        last_activity_(now) {}

  TxnId id() const { return id_; }
  TxnState state() const { return state_; }
  void set_state(TxnState s) { state_ = s; }

  // Scheduling priority (paper Sec. VII: "introduction of a transaction
  // priority"); higher values queue ahead of lower ones.
  int priority() const { return priority_; }

  TimePoint begin_time() const { return begin_time_; }

  // --- A_temp: virtual copies -----------------------------------------------

  bool HasTemp(const Cell& cell) const { return temp_.count(cell) > 0; }
  Result<storage::Value> GetTemp(const Cell& cell) const;
  void SetTemp(const Cell& cell, storage::Value v) {
    temp_[cell] = std::move(v);
  }
  void ClearTemp(const Cell& cell) { temp_.erase(cell); }
  const std::map<Cell, storage::Value>& temp() const { return temp_; }

  // --- granted operation classes (what this txn holds per cell) ------------

  void GrantClass(const Cell& cell, semantics::OpClass cls) {
    granted_[cell] = cls;
  }
  bool HasGrant(const Cell& cell) const { return granted_.count(cell) > 0; }
  Result<semantics::OpClass> GrantedClass(const Cell& cell) const;
  void RevokeGrant(const Cell& cell) { granted_.erase(cell); }
  const std::map<Cell, semantics::OpClass>& grants() const { return granted_; }

  // Objects this transaction touches in any role (grant or wait), as
  // handles into the Gtm's registry, ordered by object id. Resolved once,
  // when the transaction first touches the object; the handles stay valid
  // because the Gtm never unregisters an object. A transaction is noted on
  // an object before it can hold or queue there, so a grant made while a
  // loop walks involved() never inserts into it.
  void NoteInvolved(ObjectState* object);
  bool IsInvolved(const ObjectId& object) const;
  const std::vector<ObjectState*>& involved() const { return involved_; }

  // --- timing (A_t_sleep, A_t_wait) ----------------------------------------

  TimePoint sleep_since() const { return sleep_since_; }
  void set_sleep_since(TimePoint t) { sleep_since_ = t; }

  // Last interaction with the middleware (begin / invoke / read); the
  // inactivity oracle Ξ uses this to park idle transactions.
  TimePoint last_activity() const { return last_activity_; }
  void set_last_activity(TimePoint t) { last_activity_ = t; }

  void SetWaitSince(const ObjectId& object, TimePoint t) {
    wait_since_[object] = t;
  }
  void ClearWaitSince(const ObjectId& object) { wait_since_.erase(object); }
  const std::map<ObjectId, TimePoint>& wait_since() const {
    return wait_since_;
  }

  // --- statistics ----------------------------------------------------------

  int64_t ops_executed = 0;
  Duration total_wait_time = 0;
  Duration total_sleep_time = 0;

 private:
  TxnId id_;
  TxnState state_;
  TimePoint begin_time_;
  int priority_ = 0;
  TimePoint sleep_since_ = 0;
  TimePoint last_activity_ = 0;
  std::map<Cell, storage::Value> temp_;
  std::map<Cell, semantics::OpClass> granted_;
  std::vector<ObjectState*> involved_;  // Sorted by ObjectState::id.
  std::map<ObjectId, TimePoint> wait_since_;
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_MANAGED_TXN_H_
