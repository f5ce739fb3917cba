#ifndef PRESERIAL_STORAGE_DATABASE_H_
#define PRESERIAL_STORAGE_DATABASE_H_

#include <memory>
#include <string>

#include "common/ids.h"
#include "common/status.h"
#include "storage/catalog.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace preserial::storage {

// The LDBS facade: catalog + write-ahead log + recovery. This is the
// "Local DataBase System" of the paper's data layer — a conventional
// store that the GTM's Secure System Transactions ultimately write to.
//
// Externally synchronized: one logical caller at a time (the 2PL engine or
// the GTM serializes access above this layer).
class Database {
 public:
  // Uses an in-memory log (no durability across process restarts).
  Database();
  // Uses the given log storage; call Open() to recover existing state.
  explicit Database(std::unique_ptr<WalStorage> wal_storage);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Replays the log into the catalog. Call once, before any other use.
  // Returns recovery statistics; a corrupt log (other than a torn tail)
  // fails with kCorruption.
  Result<RecoveryStats> Open();

  // --- DDL (auto-committed, logged under the system txn) -------------------
  Result<Table*> CreateTable(const std::string& name, Schema schema);
  Status AddConstraint(const std::string& table, CheckConstraint constraint);
  Status DropTable(const std::string& name);

  // --- auto-committed single-row DML (logs BEGIN/op/COMMIT) ---------------
  Status InsertRow(const std::string& table, Row row);
  Status UpdateRow(const std::string& table, const Value& key, Row after);
  Status DeleteRow(const std::string& table, const Value& key);

  // --- access for the transaction engines ----------------------------------
  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }
  WalWriter* wal() { return &wal_writer_; }
  Result<Table*> GetTable(const std::string& name) {
    return catalog_.GetTable(name);
  }

  // Monotonic transaction-id source shared by all engines on this database.
  TxnId NextTxnId() { return next_txn_id_++; }

  // Rewrites the log as a snapshot of current state (DDL + inserts under the
  // system txn). Must not run while any transaction is in flight.
  Status Checkpoint();

 private:
  std::unique_ptr<WalStorage> wal_storage_;
  WalWriter wal_writer_;
  Catalog catalog_;
  TxnId next_txn_id_ = 1;
  bool opened_ = false;
};

}  // namespace preserial::storage

#endif  // PRESERIAL_STORAGE_DATABASE_H_
