#include "storage/recovery.h"

#include <unordered_set>

#include "common/strings.h"

namespace preserial::storage {

Result<RecoveryStats> ReplayWal(const std::vector<WalRecord>& records,
                                Catalog* catalog) {
  RecoveryStats stats;
  stats.records_scanned = records.size();

  // Pass 1: which transactions reached COMMIT?
  std::unordered_set<TxnId> committed;
  std::unordered_set<TxnId> seen;
  for (const WalRecord& r : records) {
    if (r.txn_id != kSystemTxnId) seen.insert(r.txn_id);
    if (r.type == WalRecordType::kCommit) committed.insert(r.txn_id);
  }
  stats.txns_committed = committed.size();
  for (TxnId t : seen) {
    if (committed.count(t) == 0) ++stats.txns_discarded;
  }

  // Pass 2: redo DDL and committed data records in log order.
  for (const WalRecord& r : records) {
    const bool is_system = r.txn_id == kSystemTxnId;
    switch (r.type) {
      case WalRecordType::kBegin:
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
      case WalRecordType::kCheckpoint:
        break;
      // Cluster-coordinator records live in the coordinator's own log and
      // carry no database effects; ignore them if they ever share a log.
      case WalRecordType::kClusterPrepare:
      case WalRecordType::kClusterCommit:
      case WalRecordType::kClusterAbort:
      case WalRecordType::kClusterEnd:
        break;
      case WalRecordType::kCreateTable: {
        Result<Table*> t = catalog->CreateTable(r.table, r.schema);
        if (!t.ok()) return t.status();
        ++stats.records_applied;
        break;
      }
      case WalRecordType::kAddConstraint: {
        PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog->GetTable(r.table));
        PRESERIAL_RETURN_IF_ERROR(t->AddConstraint(r.constraint));
        ++stats.records_applied;
        break;
      }
      case WalRecordType::kDropTable: {
        PRESERIAL_RETURN_IF_ERROR(catalog->DropTable(r.table));
        ++stats.records_applied;
        break;
      }
      case WalRecordType::kInsert: {
        if (!is_system && committed.count(r.txn_id) == 0) break;
        PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog->GetTable(r.table));
        Result<RowId> rid = t->Insert(r.row);
        if (!rid.ok()) return rid.status();
        ++stats.records_applied;
        break;
      }
      case WalRecordType::kUpdate: {
        if (!is_system && committed.count(r.txn_id) == 0) break;
        PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog->GetTable(r.table));
        PRESERIAL_RETURN_IF_ERROR(t->UpdateByKey(r.key, r.row));
        ++stats.records_applied;
        break;
      }
      case WalRecordType::kDelete: {
        if (!is_system && committed.count(r.txn_id) == 0) break;
        PRESERIAL_ASSIGN_OR_RETURN(Table * t, catalog->GetTable(r.table));
        PRESERIAL_RETURN_IF_ERROR(t->DeleteByKey(r.key));
        ++stats.records_applied;
        break;
      }
    }
  }
  return stats;
}

}  // namespace preserial::storage
