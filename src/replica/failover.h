#ifndef PRESERIAL_REPLICA_FAILOVER_H_
#define PRESERIAL_REPLICA_FAILOVER_H_

#include "common/status.h"
#include "replica/replica.h"

namespace preserial::replica {

// Promotes a backup after the primary dies:
//
//   1. elect the live backup with the highest applied LSN;
//   2. bump the group epoch, truncate the group log to the winner's LSN
//      — anything past it was acknowledged only by the fenced primary
//      (sync shipping makes that suffix empty) — and re-point its offset
//      index at the winner's byte log, a byte-identical prefix of the dead
//      primary's;
//   3. flip the winner to the primary role; its replayed state machines
//      already hold every Sleeping transaction with the original
//      A_t_sleep / X_tc timestamps, so Algorithm 9's awake-check keeps
//      giving the paper's answers;
//   4. re-synthesize grant events for Active transactions, since backups
//      discard notifications while replaying (sessions' OnGranted is
//      idempotent, so over-notifying is safe);
//   5. rebuild the shipper over the surviving backups.
//
// The old primary stays fenced: records it might still try to ship carry
// the stale epoch and every replica rejects them (kFailedPrecondition).
class FailoverController {
 public:
  explicit FailoverController(ReplicatedGtm* group) : group_(group) {}

  // kFailedPrecondition while the primary is alive; kUnavailable when no
  // live backup remains.
  Result<PromotionReport> Promote();

 private:
  ReplicatedGtm* group_;
};

}  // namespace preserial::replica

#endif  // PRESERIAL_REPLICA_FAILOVER_H_
