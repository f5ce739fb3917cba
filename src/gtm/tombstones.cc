#include "gtm/tombstones.h"

#include "common/logging.h"

namespace preserial::gtm {

void Tombstones::Add(TxnId txn, TxnState state) {
  PRESERIAL_CHECK(!IsLive(state)) << "txn " << txn << " retires live";
  if (states_.empty()) {
    base_ = txn;
  } else if (txn < base_) {
    states_.insert(states_.begin(), base_ - txn, 0);
    base_ = txn;
  }
  const uint64_t slot = txn - base_;
  if (slot >= states_.size()) states_.resize(slot + 1, 0);
  PRESERIAL_CHECK(states_[slot] == 0) << "txn " << txn << " retired twice";
  states_[slot] = static_cast<uint8_t>(1 + static_cast<int>(state));
}

std::optional<TxnState> Tombstones::Find(TxnId txn) const {
  if (txn < base_ || txn - base_ >= states_.size()) return std::nullopt;
  const uint8_t s = states_[txn - base_];
  if (s == 0) return std::nullopt;
  return static_cast<TxnState>(s - 1);
}

std::vector<TxnId> Tombstones::InState(TxnState state) const {
  const uint8_t want = static_cast<uint8_t>(1 + static_cast<int>(state));
  std::vector<TxnId> out;
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == want) out.push_back(base_ + i);
  }
  return out;
}

}  // namespace preserial::gtm
