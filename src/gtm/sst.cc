#include "gtm/sst.h"

#include <utility>

#include "common/logging.h"
#include "storage/table.h"

namespace preserial::gtm {

namespace {

// One installed write: where it went and the row before and after it.
struct Installed {
  storage::Table* table;
  const SstExecutor::CellWrite* write;
  storage::Row before;
  storage::Row after;
};

Status Install(storage::Database* db, const SstExecutor::CellWrite& w,
               std::vector<Installed>* installed) {
  PRESERIAL_ASSIGN_OR_RETURN(storage::Table * tab, db->GetTable(w.table));
  if (w.column == tab->schema().primary_key()) {
    return Status::InvalidArgument("cannot write the primary-key column");
  }
  PRESERIAL_ASSIGN_OR_RETURN(storage::Row before, tab->GetByKey(w.key));
  storage::Row after = before;
  after.Set(w.column, w.value);
  // UpdateByKey validates schema and CHECK constraints.
  PRESERIAL_RETURN_IF_ERROR(tab->UpdateByKey(w.key, after));
  installed->push_back(Installed{tab, &w, std::move(before), std::move(after)});
  return Status::Ok();
}

Status LogInstalled(storage::WalWriter* wal, TxnId sst,
                    std::vector<Installed>* installed) {
  PRESERIAL_RETURN_IF_ERROR(wal->LogBegin(sst));
  for (Installed& i : *installed) {
    PRESERIAL_RETURN_IF_ERROR(
        wal->LogUpdate(sst, i.write->table, i.write->key, std::move(i.after)));
  }
  return wal->LogCommit(sst);
}

}  // namespace

SstExecutor::SstExecutor(storage::Database* db) : db_(db) {}

Status SstExecutor::Execute(const std::vector<CellWrite>& writes) {
  if (injector_) {
    Status injected = injector_(writes);
    if (!injected.ok()) {
      ++counters_.failed;
      ++counters_.injected_failures;
      return injected;
    }
  }
  const TxnId sst = db_->NextTxnId();
  std::vector<Installed> installed;
  installed.reserve(writes.size());
  Status s;
  for (const CellWrite& w : writes) {
    s = Install(db_, w, &installed);
    if (!s.ok()) break;
  }
  if (s.ok()) s = LogInstalled(db_->wal(), sst, &installed);
  if (!s.ok()) {
    for (auto i = installed.rbegin(); i != installed.rend(); ++i) {
      PRESERIAL_CHECK(
          i->table->UpdateByKey(i->write->key, std::move(i->before)).ok());
    }
    ++counters_.failed;
    return s;
  }
  ++counters_.executed;
  counters_.cells_written += static_cast<int64_t>(writes.size());
  return Status::Ok();
}

}  // namespace preserial::gtm
