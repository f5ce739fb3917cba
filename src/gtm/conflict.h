#ifndef PRESERIAL_GTM_CONFLICT_H_
#define PRESERIAL_GTM_CONFLICT_H_

#include <cstdint>
#include <optional>

#include "common/ids.h"
#include "gtm/object_state.h"

namespace preserial::gtm {

// A conflict relation over the six operation classes: bit
// 6 * held + requested is set iff a holder of `held` blocks a request for
// `requested`. The Gtm builds its masks once, at construction.
struct ConflictMask {
  uint64_t bits = 0;

  bool Conflicts(semantics::OpClass held, semantics::OpClass requested) const {
    return (bits >> (static_cast<size_t>(held) * semantics::kNumOpClasses +
                     static_cast<size_t>(requested))) &
           1;
  }
};

// Paper Definition 2, member-level: does a request for (member, cls)
// conflict with the holder's set of operations on the object? True iff some
// held class conflicts with `cls` on the same or a logically dependent
// member.
bool OpsConflict(const MemberOps& held, semantics::MemberId member,
                 semantics::OpClass cls,
                 const semantics::LogicalDependencies& deps,
                 const ConflictMask& conflict);

// Symmetric conflict between two full operation sets.
bool OpsSetsConflict(const MemberOps& a, const MemberOps& b,
                     const semantics::LogicalDependencies& deps,
                     const ConflictMask& conflict);

// Admission check of Algorithm 2: the blocker, if any, among
// (X_pending - X_sleeping) ∪ X_committing for a request by `requester`.
// Sleeping holders do not block (they will be re-validated at awake).
std::optional<TxnId> FindAdmissionConflict(const ObjectState& obj,
                                           TxnId requester,
                                           semantics::MemberId member,
                                           semantics::OpClass cls,
                                           const ConflictMask& conflict);

// Counts incompatible (w.r.t. `cls` on `member`) wait-queue entries of
// other transactions — the quantity the starvation guard thresholds on.
int CountIncompatibleWaiters(const ObjectState& obj, TxnId requester,
                             semantics::MemberId member,
                             semantics::OpClass cls,
                             const ConflictMask& conflict);

// Why a sleeper cannot wake: a live holder, or a commit with its X_tc.
struct AwakeBlocker {
  TxnId txn = kInvalidTxnId;
  std::optional<TimePoint> commit_time;  // Unset for a live holder.
};

// Awake check of Algorithm 9: a blocker among X_pending ∪ X_committing,
// or a commit after `slept_at` whose class conflicts with the sleeper's
// footprint on this object — its granted ops plus the classes of its
// still-queued invocations. A conflicting commit is read from the latest
// commit of its (member, class), so it may be a later witness than the
// first one made during the sleep.
std::optional<AwakeBlocker> FindAwakeConflict(const ObjectState& obj,
                                              TxnId sleeper,
                                              TimePoint slept_at,
                                              const ConflictMask& conflict);

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_CONFLICT_H_
