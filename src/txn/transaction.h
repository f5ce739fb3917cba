#ifndef PRESERIAL_TXN_TRANSACTION_H_
#define PRESERIAL_TXN_TRANSACTION_H_

#include <string>

#include "common/clock.h"
#include "common/ids.h"
#include "txn/undo_log.h"

namespace preserial::txn {

// Lifecycle of a baseline-engine transaction.
enum class TxnPhase {
  kActive,
  kWaiting,    // Blocked on a lock.
  kCommitted,
  kAborted,
};

// Book-keeping for one transaction in the strict-2PL baseline engine.
// The engine owns these; callers refer to transactions by TxnId.
struct Transaction {
  TxnId id = kInvalidTxnId;
  TxnPhase phase = TxnPhase::kActive;
  TimePoint begin_time = 0;
  UndoLog undo;
  // Statistics the experiment harnesses read back.
  int64_t lock_waits = 0;
  int64_t operations = 0;
};

}  // namespace preserial::txn

#endif  // PRESERIAL_TXN_TRANSACTION_H_
