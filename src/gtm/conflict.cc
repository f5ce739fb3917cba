#include "gtm/conflict.h"

namespace preserial::gtm {

using semantics::LogicalDependencies;
using semantics::MemberId;
using semantics::OpClass;

bool OpsConflict(const MemberOps& held, MemberId member, OpClass cls,
                 const LogicalDependencies& deps,
                 const ConflictMask& conflict) {
  for (const auto& [held_member, held_cls] : held) {
    if (!deps.Dependent(held_member, member)) continue;
    if (conflict.Conflicts(held_cls, cls)) return true;
  }
  return false;
}

bool OpsSetsConflict(const MemberOps& a, const MemberOps& b,
                     const LogicalDependencies& deps,
                     const ConflictMask& conflict) {
  for (const auto& [member, cls] : a) {
    if (OpsConflict(b, member, cls, deps, conflict)) return true;
  }
  return false;
}

std::optional<TxnId> FindAdmissionConflict(const ObjectState& obj,
                                           TxnId requester, MemberId member,
                                           OpClass cls,
                                           const ConflictMask& conflict) {
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

int CountIncompatibleWaiters(const ObjectState& obj, TxnId requester,
                             MemberId member, OpClass cls,
                             const ConflictMask& conflict) {
  int n = 0;
  for (const WaitEntry& w : obj.waiting) {
    if (w.txn == requester) continue;
    if (!obj.deps.Dependent(w.member, member)) continue;
    if (conflict.Conflicts(w.op.cls, cls)) ++n;
  }
  return n;
}

std::optional<AwakeBlocker> FindAwakeConflict(const ObjectState& obj,
                                              TxnId sleeper,
                                              TimePoint slept_at,
                                              const ConflictMask& conflict) {
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
    if (OpsSetsConflict(own, ops, obj.deps, conflict)) {
      return AwakeBlocker{txn, std::nullopt};
    }
  }
  for (const auto& [txn, ops] : obj.committing) {
    if (txn == sleeper) continue;
    if (OpsSetsConflict(own, ops, obj.deps, conflict)) {
      return AwakeBlocker{txn, std::nullopt};
    }
  }
  // A live sleeper has committed nothing, so no slot can name it.
  for (const auto& [member, cls] : own) {
    for (MemberId m = 0; m < obj.num_members(); ++m) {
      if (!obj.deps.Dependent(m, member)) continue;
      for (size_t c = 0; c < semantics::kNumOpClasses; ++c) {
        const OpClass held = static_cast<OpClass>(c);
        const LastCommit& last = obj.committed.Latest(m, held);
        if (last.txn != kInvalidTxnId && last.commit_time > slept_at &&
            conflict.Conflicts(held, cls)) {
          return AwakeBlocker{last.txn, last.commit_time};
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace preserial::gtm
