#ifndef PRESERIAL_GTM_GTM_SERVICE_H_
#define PRESERIAL_GTM_GTM_SERVICE_H_

#include <condition_variable>
#include <mutex>
#include <unordered_set>

#include "common/clock.h"
#include "gtm/gtm.h"

namespace preserial::gtm {

// Thread-safe blocking facade over Gtm for live (non-simulated) use: each
// client session runs on its own thread and Invoke() parks the thread until
// the GTM admits the queued operation.
//
// A single coarse mutex serializes the state machine (the GTM is a
// middleware controller, not a data plane; admission decisions are cheap),
// and a condition variable wakes waiters when admission events fire.
class GtmService {
 public:
  GtmService(storage::Database* db, GtmOptions options = {});

  GtmService(const GtmService&) = delete;
  GtmService& operator=(const GtmService&) = delete;

  // Setup-time access (register objects before spawning client threads).
  Gtm* gtm() { return &gtm_; }

  TxnId Begin(int priority = 0);

  // Executes the operation, blocking while queued. On timeout the whole
  // transaction is aborted (kTimedOut). kDeadlock refusals abort too.
  Status Invoke(TxnId txn, const ObjectId& object, semantics::MemberId member,
                const semantics::Operation& op,
                Duration timeout = kNoTimeout);

  // Reads the transaction's virtual copy (acquiring a read grant, possibly
  // blocking).
  Result<storage::Value> Read(TxnId txn, const ObjectId& object,
                              semantics::MemberId member,
                              Duration timeout = kNoTimeout);

  Status Commit(TxnId txn);
  Status Abort(TxnId txn);
  Status Sleep(TxnId txn);
  Status Awake(TxnId txn);

  Result<TxnState> StateOf(TxnId txn);

  // Maintenance sweeps for live deployments (call from a housekeeping
  // thread): park idle transactions, abort over-age waiters, resolve
  // deadlock cycles. Each returns the affected transaction ids.
  std::vector<TxnId> SleepIdleTransactions(Duration idle_timeout);
  std::vector<TxnId> AbortExpiredWaits(Duration max_wait);
  std::vector<TxnId> DetectAndResolveDeadlocks();

 private:
  // Must hold mu_: moves admission events into granted_ and wakes waiters.
  void DrainEventsLocked();
  // Blocks until txn's queued invocation is granted (or timeout/abort).
  Status WaitForGrant(TxnId txn, Duration timeout);
  // Same, with the caller already holding mu_ through `lk`.
  Status WaitForGrantLocked(std::unique_lock<std::mutex>& lk, TxnId txn,
                            Duration timeout);

  SystemClock clock_;
  Gtm gtm_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_set<TxnId> granted_;
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_GTM_SERVICE_H_
