#ifndef PRESERIAL_TXN_TWO_PL_SERVICE_H_
#define PRESERIAL_TXN_TWO_PL_SERVICE_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <unordered_set>

#include "common/clock.h"
#include "txn/txn_manager.h"

namespace preserial::txn {

// Thread-safe blocking facade over the strict-2PL engine, the baseline
// counterpart of gtm::GtmService: each client runs on its own thread and
// blocked operations park on a condition variable until their lock request
// is granted.
//
// Deadlock refusals abort the transaction and surface kDeadlock; lock-wait
// timeouts abort and surface kTimedOut (the caller restarts from Begin).
class TwoPlService {
 public:
  explicit TwoPlService(storage::Database* db,
                        TwoPhaseLockingOptions options = {});

  TwoPlService(const TwoPlService&) = delete;
  TwoPlService& operator=(const TwoPlService&) = delete;

  TxnId Begin();

  Result<storage::Value> Read(TxnId txn, const std::string& table,
                              const storage::Value& key, size_t column,
                              Duration timeout = kNoTimeout);
  Result<storage::Value> ReadForUpdate(TxnId txn, const std::string& table,
                                       const storage::Value& key,
                                       size_t column, Duration timeout = kNoTimeout);
  Status Write(TxnId txn, const std::string& table,
               const storage::Value& key, size_t column, storage::Value v,
               Duration timeout = kNoTimeout);

  Status Commit(TxnId txn);
  Status Abort(TxnId txn);

  // Copy of the engine's counters, taken under the service lock, so it is
  // safe to call while other threads run transactions.
  TwoPhaseLockingEngine::Counters counters();

 private:
  // Runs `op` (an engine call returning Result<T>) under the service lock,
  // parking on kWaiting until the grant arrives or `timeout` elapses.
  template <typename T, typename Fn>
  Result<T> RunBlocking(TxnId txn, Duration timeout, Fn&& op);

  // Must hold mu_: absorbs newly runnable transactions and wakes waiters.
  void DrainRunnableLocked();

  SystemClock clock_;
  TwoPhaseLockingEngine engine_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_set<TxnId> runnable_;
};

}  // namespace preserial::txn

#endif  // PRESERIAL_TXN_TWO_PL_SERVICE_H_
