#ifndef PRESERIAL_REPLICA_SHIP_H_
#define PRESERIAL_REPLICA_SHIP_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "replica/log.h"
#include "replica/node.h"

namespace preserial::replica {

// Sync: every command's records are delivered (and re-delivered through
// losses) to all live backups before the command returns — failover loses
// nothing. Async: Pump() ships a bounded window per round; the primary
// acknowledges clients ahead of the backups, and the gap is the
// replication lag a failover can lose.
enum class ShipMode { kSync, kAsync };

const char* ShipModeName(ShipMode mode);

struct ShipOptions {
  ShipMode mode = ShipMode::kSync;
  double loss = 0.0;       // Per-message drop probability (record and ack).
  double duplicate = 0.0;  // Chance a delivered record is delivered twice.
  uint64_t window = 64;    // Async: max send attempts per backup per Pump.
  // Sync gives up (Internal error) after this many consecutive losses on
  // one record — unreachable in practice for loss < 1.
  int max_sync_attempts = 10000;
};

struct ShipCounters {
  int64_t records_shipped = 0;  // Send attempts (including resends).
  int64_t records_acked = 0;    // Ack receipts that advanced a backup view.
  int64_t resends = 0;          // Attempts for an LSN already sent once.
  int64_t duplicates_delivered = 0;
  int64_t record_losses = 0;
  int64_t ack_losses = 0;
};

// Ships the group log's frames to the backups over a lossy link, go-back-N
// style with cumulative acks. The shipper's per-backup acked view is its own —
// a lost ack leaves it stale, the record is resent, and the backup absorbs
// it as an idempotent duplicate. Losses are sampled from `rng` (the link
// is simulated; nodes are in-process).
class LogShipper {
 public:
  LogShipper(const ReplicaLog* log, ShipOptions options, Rng* rng)
      : log_(log), options_(options), rng_(rng) {}

  void AddBackup(ReplicaNode* node);
  void ClearBackups() { backups_.clear(); }

  // Sync mode: block (retrying losses) until every live backup acked the
  // whole log. Fails only on replica errors, never on losses.
  Status ShipAll();

  // Async mode: one windowed best-effort round per live backup.
  Status Pump();

  uint64_t AckedLsn(size_t backup) const { return backups_[backup].acked; }
  // Over live backups; the full log when none are live.
  uint64_t MinAckedLsn() const;
  uint64_t Lag() const;

  size_t num_backups() const { return backups_.size(); }
  ReplicaNode* backup(size_t i) { return backups_[i].node; }
  const ShipCounters& counters() const { return counters_; }
  const ShipOptions& options() const { return options_; }

 private:
  enum class ShipOutcome { kAcked, kLost, kDown, kRejected };

  struct BackupSlot {
    ReplicaNode* node = nullptr;
    uint64_t acked = 0;        // Shipper's view (cumulative).
    uint64_t max_shipped = 0;  // For resend accounting.
  };

  // Sends the frame at `lsn`; a backup never sees a decoded record.
  ShipOutcome ShipOne(BackupSlot* slot, uint64_t lsn);
  // Connection handshake: adopt the backup's durable LSN as the ack view
  // (covers both a restarted backup that lost its tail and acks we never
  // saw).
  void Resync(BackupSlot* slot);
  bool Chance(double p) { return p > 0 && rng_->NextDouble() < p; }

  const ReplicaLog* log_;
  ShipOptions options_;
  Rng* rng_;
  std::vector<BackupSlot> backups_;
  ShipCounters counters_;
};

}  // namespace preserial::replica

#endif  // PRESERIAL_REPLICA_SHIP_H_
