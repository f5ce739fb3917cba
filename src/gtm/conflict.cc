#include "gtm/conflict.h"

#include "semantics/compatibility.h"

namespace preserial::gtm {

using semantics::LogicalDependencies;
using semantics::MemberId;
using semantics::OpClass;

bool DefaultClassConflict(OpClass held, OpClass requested) {
  return !semantics::Compatible(held, requested);
}

bool ExclusiveClassConflict(OpClass held, OpClass requested) {
  return !(held == OpClass::kRead && requested == OpClass::kRead);
}

bool OpsConflict(const MemberOps& held, MemberId member, OpClass cls,
                 const LogicalDependencies& deps,
                 const ClassConflictFn& conflict) {
  for (const auto& [held_member, held_cls] : held) {
    if (!deps.Dependent(held_member, member)) continue;
    if (conflict(held_cls, cls)) return true;
  }
  return false;
}

bool OpsSetsConflict(const MemberOps& a, const MemberOps& b,
                     const LogicalDependencies& deps,
                     const ClassConflictFn& conflict) {
  for (const auto& [member, cls] : a) {
    if (OpsConflict(b, member, cls, deps, conflict)) return true;
  }
  return false;
}

std::optional<TxnId> FindAdmissionConflict(const ObjectState& obj,
                                           TxnId requester, MemberId member,
                                           OpClass cls,
                                           const ClassConflictFn& conflict) {
  for (const auto& [txn, ops] : obj.pending) {
    if (txn == requester) continue;
    if (obj.IsSleeping(txn)) continue;  // Sleepers do not block admission.
    if (OpsConflict(ops, member, cls, obj.deps, conflict)) return txn;
  }
  for (const auto& [txn, ops] : obj.committing) {
    if (txn == requester) continue;
    if (OpsConflict(ops, member, cls, obj.deps, conflict)) return txn;
  }
  return std::nullopt;
}

std::optional<TxnId> FindAwakeConflict(const ObjectState& obj, TxnId sleeper,
                                       TimePoint slept_at,
                                       const ClassConflictFn& conflict) {
  // The sleeper's full footprint on the object: granted (pending) classes
  // plus the classes of its still-queued invocations — a buffered op is
  // re-admitted at the wake, so a conflicting live holder or a conflicting
  // commit newer than the sleep dooms the reconnect just like one against a
  // held grant. Granted classes win per member (queued upgrades don't
  // exist, so the overlap is at most same-class).
  MemberOps own = obj.OpsOf(sleeper);
  for (const WaitEntry& w : obj.waiting) {
    if (w.txn == sleeper) own.emplace(w.member, w.op.cls);
  }
  if (own.empty()) return std::nullopt;
  for (const auto& [txn, ops] : obj.pending) {
    if (txn == sleeper) continue;
    if (obj.IsSleeping(txn)) continue;  // A fellow sleeper is no threat yet.
    if (OpsSetsConflict(own, ops, obj.deps, conflict)) return txn;
  }
  for (const auto& [txn, ops] : obj.committing) {
    if (txn == sleeper) continue;
    if (OpsSetsConflict(own, ops, obj.deps, conflict)) return txn;
  }
  // Newest first: `committed` is in commit order, so the first entry that
  // predates the sleep ends the scan, which then costs only the commits
  // made during the sleep. The earliest conflicting commit is reported.
  std::optional<TxnId> stale;
  for (auto it = obj.committed.rbegin(); it != obj.committed.rend(); ++it) {
    if (it->commit_time <= slept_at) break;
    if (it->txn == sleeper) continue;
    if (OpsSetsConflict(own, it->ops, obj.deps, conflict)) stale = it->txn;
  }
  return stale;
}

}  // namespace preserial::gtm
