#include "storage/database.h"

#include <utility>

#include "common/logging.h"

namespace preserial::storage {

Database::Database() : Database(std::make_unique<MemoryWalStorage>()) {}

Database::Database(std::unique_ptr<WalStorage> wal_storage)
    : wal_storage_(std::move(wal_storage)), wal_writer_(wal_storage_.get()) {}

Result<RecoveryStats> Database::Open() {
  PRESERIAL_CHECK(!opened_) << "Database::Open called twice";
  opened_ = true;
  PRESERIAL_ASSIGN_OR_RETURN(std::string log, wal_storage_->ReadAll());
  WalScanResult scan = ScanWal(log);
  if (!scan.status.ok()) return scan.status;
  PRESERIAL_ASSIGN_OR_RETURN(RecoveryStats stats,
                             ReplayWal(scan.records, &catalog_));
  // Resume txn ids above anything seen in the log.
  for (const WalRecord& r : scan.records) {
    if (r.txn_id >= next_txn_id_) next_txn_id_ = r.txn_id + 1;
  }
  // Drop any torn tail so future appends start at a clean frame boundary.
  if (scan.bytes_consumed < log.size()) {
    PRESERIAL_RETURN_IF_ERROR(
        wal_storage_->Reset(std::string_view(log).substr(0, scan.bytes_consumed)));
  }
  return stats;
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog_.CreateTable(name, schema));
  Status s = wal_writer_.LogCreateTable(kSystemTxnId, name, t->schema());
  if (!s.ok()) {
    (void)catalog_.DropTable(name);
    return s;
  }
  return t;
}

Status Database::AddConstraint(const std::string& table,
                               CheckConstraint constraint) {
  PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  PRESERIAL_RETURN_IF_ERROR(t->AddConstraint(constraint));
  return wal_writer_.LogAddConstraint(kSystemTxnId, table, constraint);
}

Status Database::DropTable(const std::string& name) {
  PRESERIAL_RETURN_IF_ERROR(catalog_.DropTable(name));
  return wal_writer_.LogDropTable(kSystemTxnId, name);
}

Status Database::InsertRow(const std::string& table, Row row) {
  PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  const TxnId txn = NextTxnId();
  PRESERIAL_RETURN_IF_ERROR(wal_writer_.LogBegin(txn));
  Result<RowId> rid = t->Insert(row);
  if (!rid.ok()) {
    PRESERIAL_RETURN_IF_ERROR(wal_writer_.LogAbort(txn));
    return rid.status();
  }
  PRESERIAL_RETURN_IF_ERROR(wal_writer_.LogInsert(txn, table, std::move(row)));
  return wal_writer_.LogCommit(txn);
}

Status Database::UpdateRow(const std::string& table, const Value& key,
                           Row after) {
  PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  const TxnId txn = NextTxnId();
  PRESERIAL_RETURN_IF_ERROR(wal_writer_.LogBegin(txn));
  Status s = t->UpdateByKey(key, after);
  if (!s.ok()) {
    PRESERIAL_RETURN_IF_ERROR(wal_writer_.LogAbort(txn));
    return s;
  }
  PRESERIAL_RETURN_IF_ERROR(
      wal_writer_.LogUpdate(txn, table, key, std::move(after)));
  return wal_writer_.LogCommit(txn);
}

Status Database::DeleteRow(const std::string& table, const Value& key) {
  PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  const TxnId txn = NextTxnId();
  PRESERIAL_RETURN_IF_ERROR(wal_writer_.LogBegin(txn));
  Status s = t->DeleteByKey(key);
  if (!s.ok()) {
    PRESERIAL_RETURN_IF_ERROR(wal_writer_.LogAbort(txn));
    return s;
  }
  PRESERIAL_RETURN_IF_ERROR(wal_writer_.LogDelete(txn, table, key));
  return wal_writer_.LogCommit(txn);
}

Status Database::Checkpoint() {
  std::string snapshot;
  {
    WalRecord marker;
    marker.type = WalRecordType::kCheckpoint;
    marker.txn_id = kSystemTxnId;
    FrameRecord(marker, &snapshot);
  }
  for (const std::string& name : catalog_.TableNames()) {
    Result<Table*> t = catalog_.GetTable(name);
    PRESERIAL_CHECK(t.ok());
    Table* table = t.value();
    {
      WalRecord r;
      r.type = WalRecordType::kCreateTable;
      r.txn_id = kSystemTxnId;
      r.table = name;
      r.schema = table->schema();
      FrameRecord(r, &snapshot);
    }
    for (const CheckConstraint& c : table->constraints()) {
      WalRecord r;
      r.type = WalRecordType::kAddConstraint;
      r.txn_id = kSystemTxnId;
      r.table = name;
      r.constraint = c;
      FrameRecord(r, &snapshot);
    }
    table->Scan([&](const Value&, const Row& row) {
      WalRecord r;
      r.type = WalRecordType::kInsert;
      r.txn_id = kSystemTxnId;
      r.table = name;
      r.row = row;
      FrameRecord(r, &snapshot);
      return true;
    });
  }
  PRESERIAL_RETURN_IF_ERROR(wal_storage_->Reset(snapshot));
  return wal_storage_->Sync();
}

}  // namespace preserial::storage
