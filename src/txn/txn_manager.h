#ifndef PRESERIAL_TXN_TXN_MANAGER_H_
#define PRESERIAL_TXN_TXN_MANAGER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "lock/lock_manager.h"
#include "storage/database.h"
#include "txn/transaction.h"

namespace preserial::txn {

// Strict two-phase-locking transaction engine over the LDBS — the paper's
// classical baseline.
//
// Non-blocking protocol: operations return
//   - OK            the operation executed;
//   - kWaiting      the lock request was queued. Retry the same operation
//                   after TakeRunnable() reports the transaction;
//   - kDeadlock     the wait would close a waits-for cycle; the caller must
//                   Abort() the transaction;
//   - other errors  the operation failed (NotFound, constraint, ...); the
//                   transaction stays active and the caller decides.
//
// Strictness: all locks are held until Commit/Abort, so the WAL order of
// conflicting operations is a serialization order (what recovery relies
// on).
//
// Not thread-safe; serialize externally (the simulator is single-threaded).
struct TwoPhaseLockingOptions {
  // Acquire kUpdate instead of kShared in ReadForUpdate; avoids the
  // S->X upgrade deadlock of the paper's Sec. II example.
  bool use_update_locks = true;
};

class TwoPhaseLockingEngine {
 public:
  using Options = TwoPhaseLockingOptions;

  explicit TwoPhaseLockingEngine(storage::Database* db,
                                 const Clock* clock = nullptr,
                                 Options options = Options());

  TwoPhaseLockingEngine(const TwoPhaseLockingEngine&) = delete;
  TwoPhaseLockingEngine& operator=(const TwoPhaseLockingEngine&) = delete;

  // --- lifecycle -----------------------------------------------------------

  TxnId Begin();
  Status Commit(TxnId txn);
  Status Abort(TxnId txn);

  // --- operations ----------------------------------------------------------

  // Reads one cell under a shared lock.
  Result<storage::Value> Read(TxnId txn, const std::string& table,
                              const storage::Value& key, size_t column);

  // Reads one cell under an update (or exclusive) lock, declaring intent to
  // write it later.
  Result<storage::Value> ReadForUpdate(TxnId txn, const std::string& table,
                                       const storage::Value& key,
                                       size_t column);

  // Overwrites one cell under an exclusive lock. The primary-key column
  // cannot be the target.
  Status Write(TxnId txn, const std::string& table, const storage::Value& key,
               size_t column, storage::Value v);

  // --- wait protocol -------------------------------------------------------

  // Transactions whose blocked lock request has been granted since the last
  // call; they are kActive again and the blocked operation should be
  // retried.
  std::vector<TxnId> TakeRunnable();

  // --- introspection -------------------------------------------------------

  const Transaction* Get(TxnId txn) const;
  TxnPhase PhaseOf(TxnId txn) const;
  lock::LockManager* lock_manager() { return &lock_manager_; }

  struct Counters {
    int64_t begun = 0;
    int64_t committed = 0;
    int64_t aborted = 0;
    int64_t lock_waits = 0;
    int64_t deadlocks = 0;
  };
  const Counters& counters() const { return counters_; }

  // Resource name for a row ("table\x1f<encoded key>").
  static lock::ResourceId RowResource(const std::string& table,
                                      const storage::Value& key);

 private:
  Transaction* GetMutable(TxnId txn);
  // Acquires `mode` on the row resource; maps lock-manager outcomes onto
  // the Status protocol above.
  Status AcquireRow(Transaction* t, const std::string& table,
                    const storage::Value& key, lock::LockMode mode);
  void AbsorbGrants(std::vector<lock::LockGrant> grants);

  storage::Database* db_;
  const Clock* clock_;  // May be null (timestamps then stay 0).
  Options options_;
  lock::LockManager lock_manager_;
  std::unordered_map<TxnId, Transaction> txns_;
  std::vector<TxnId> runnable_;
  Counters counters_;
};

}  // namespace preserial::txn

#endif  // PRESERIAL_TXN_TXN_MANAGER_H_
