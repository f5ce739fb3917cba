#ifndef PRESERIAL_GTM_TOMBSTONES_H_
#define PRESERIAL_GTM_TOMBSTONES_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "gtm/txn_state.h"

namespace preserial::gtm {

// What the Gtm keeps of a transaction once it has committed or aborted: its
// terminal state, so that StateOf and a coordinator's re-drive still answer.
// (Its *Once replies live in the Gtm's reply cache, keyed by id.)
//
// One byte per transaction id, indexed from the lowest id retired so far.
// Ids come from the database's dense counter, so an id this Gtm never began
// (an SST's, or another caller's of the same database) costs one empty byte.
class Tombstones {
 public:
  // Records the terminal state (Committed or Aborted) of `txn`, which must
  // not have retired before.
  void Add(TxnId txn, TxnState state);
  // The terminal state of `txn`, or nullopt when it has not retired.
  std::optional<TxnState> Find(TxnId txn) const;
  // Retired ids in `state`, ascending.
  std::vector<TxnId> InState(TxnState state) const;

 private:
  TxnId base_ = 0;  // Id of states_[0].
  // 0 for an id that has not retired, else 1 + its TxnState.
  std::deque<uint8_t> states_;
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_TOMBSTONES_H_
