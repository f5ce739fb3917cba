#include "replica/ship.h"

#include <algorithm>

#include "common/strings.h"

namespace preserial::replica {

const char* ShipModeName(ShipMode mode) {
  switch (mode) {
    case ShipMode::kSync:
      return "sync";
    case ShipMode::kAsync:
      return "async";
  }
  return "?";
}

void LogShipper::AddBackup(ReplicaNode* node) {
  BackupSlot slot;
  slot.node = node;
  slot.acked = node->last_applied();
  slot.max_shipped = slot.acked;
  backups_.push_back(slot);
}

void LogShipper::Resync(BackupSlot* slot) {
  slot->acked = slot->node->last_applied();
}

LogShipper::ShipOutcome LogShipper::ShipOne(BackupSlot* slot, uint64_t lsn) {
  ++counters_.records_shipped;
  if (lsn <= slot->max_shipped) ++counters_.resends;
  slot->max_shipped = std::max(slot->max_shipped, lsn);
  if (Chance(options_.loss)) {
    ++counters_.record_losses;
    return ShipOutcome::kLost;
  }
  const std::string_view frame = log_->Frame(lsn);
  Status applied = slot->node->Apply(frame);
  if (!applied.ok()) {
    return applied.code() == StatusCode::kUnavailable ? ShipOutcome::kDown
                                                      : ShipOutcome::kRejected;
  }
  if (Chance(options_.duplicate)) {
    ++counters_.duplicates_delivered;
    (void)slot->node->Apply(frame);
  }
  if (Chance(options_.loss)) {
    // The record landed but its ack didn't: our view stays stale, the next
    // round resends, and the backup absorbs the duplicate.
    ++counters_.ack_losses;
    return ShipOutcome::kLost;
  }
  slot->acked = std::max(slot->acked, slot->node->last_applied());
  ++counters_.records_acked;
  return ShipOutcome::kAcked;
}

Status LogShipper::ShipAll() {
  for (BackupSlot& slot : backups_) {
    if (!slot.node->alive()) continue;
    Resync(&slot);
    int attempts = 0;
    while (slot.acked < log_->last_lsn()) {
      switch (ShipOne(&slot, slot.acked + 1)) {
        case ShipOutcome::kAcked:
          attempts = 0;
          break;
        case ShipOutcome::kLost:
          if (++attempts > options_.max_sync_attempts) {
            return Status::Internal(
                StrFormat("ship: %d consecutive losses to %s",
                          options_.max_sync_attempts, slot.node->name().c_str()));
          }
          break;
        case ShipOutcome::kDown:
          // Died mid-round; the failover controller deals with it.
          goto next_backup;
        case ShipOutcome::kRejected:
          return Status::Internal("ship: " + slot.node->name() +
                                  " rejected record " +
                                  std::to_string(slot.acked + 1));
      }
    }
  next_backup:;
  }
  return Status::Ok();
}

Status LogShipper::Pump() {
  for (BackupSlot& slot : backups_) {
    if (!slot.node->alive()) continue;
    Resync(&slot);
    uint64_t budget = options_.window;
    bool stalled = false;
    while (budget-- > 0 && !stalled && slot.acked < log_->last_lsn()) {
      switch (ShipOne(&slot, slot.acked + 1)) {
        case ShipOutcome::kAcked:
          break;
        case ShipOutcome::kLost:
          // Go-back-N: anything later this round would only be a gap.
          stalled = true;
          break;
        case ShipOutcome::kDown:
          stalled = true;
          break;
        case ShipOutcome::kRejected:
          return Status::Internal("ship: " + slot.node->name() +
                                  " rejected record " +
                                  std::to_string(slot.acked + 1));
      }
    }
  }
  return Status::Ok();
}

uint64_t LogShipper::MinAckedLsn() const {
  uint64_t min_acked = log_->last_lsn();
  for (const BackupSlot& slot : backups_) {
    if (!slot.node->alive()) continue;
    min_acked = std::min(min_acked, slot.acked);
  }
  return min_acked;
}

uint64_t LogShipper::Lag() const { return log_->last_lsn() - MinAckedLsn(); }

}  // namespace preserial::replica
