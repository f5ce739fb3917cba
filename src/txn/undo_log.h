#ifndef PRESERIAL_TXN_UNDO_LOG_H_
#define PRESERIAL_TXN_UNDO_LOG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/row.h"
#include "storage/value.h"

namespace preserial::txn {

// In-memory undo records for one transaction: the before-image of every
// row it updated. Applied in reverse on abort to restore the tables'
// pre-transaction state (the WAL then records the abort so recovery skips
// the transaction entirely).
class UndoLog {
 public:
  struct Entry {
    std::string table;
    storage::Value key;   // PK of the updated row.
    storage::Row before;  // Its before-image.
  };

  void RecordUpdate(std::string table, storage::Value key,
                    storage::Row before);

  // Applies entries newest-first against the catalog. Any failure is an
  // internal invariant violation (undo must not fail).
  Status Apply(storage::Catalog* catalog) const;

  void Clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace preserial::txn

#endif  // PRESERIAL_TXN_UNDO_LOG_H_
