#include "txn/undo_log.h"

#include <utility>

namespace preserial::txn {

void UndoLog::RecordUpdate(std::string table, storage::Value key,
                           storage::Row before) {
  entries_.push_back(
      Entry{std::move(table), std::move(key), std::move(before)});
}

Status UndoLog::Apply(storage::Catalog* catalog) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    PRESERIAL_ASSIGN_OR_RETURN(storage::Table * table,
                               catalog->GetTable(it->table));
    PRESERIAL_RETURN_IF_ERROR(table->UpdateByKey(it->key, it->before));
  }
  return Status::Ok();
}

}  // namespace preserial::txn
