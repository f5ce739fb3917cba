#include "gtm/object_state.h"

#include <algorithm>

namespace preserial::gtm {

bool ObjectState::IsWaiting(TxnId txn) const {
  for (const WaitEntry& w : waiting) {
    if (w.txn == txn) return true;
  }
  return false;
}

MemberOps ObjectState::OpsOf(TxnId txn) const {
  auto it = pending.find(txn);
  if (it != pending.end()) return it->second;
  MemberOps ops;
  for (const WaitEntry& w : waiting) {
    if (w.txn == txn) ops[w.member] = w.op.cls;
  }
  return ops;
}

void ObjectState::Erase(TxnId txn) {
  pending.erase(txn);
  committing.erase(txn);
  aborting.erase(txn);
  sleeping.erase(txn);
  read.erase(txn);
  new_values.erase(txn);
  waiting.erase(std::remove_if(waiting.begin(), waiting.end(),
                               [txn](const WaitEntry& w) {
                                 return w.txn == txn;
                               }),
                waiting.end());
}

size_t CommitSummary::size() const {
  size_t n = 0;
  for (const auto& member : slots_) {
    for (const LastCommit& slot : member) n += slot.txn != kInvalidTxnId;
  }
  return n;
}

}  // namespace preserial::gtm
