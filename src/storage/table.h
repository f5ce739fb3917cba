#ifndef PRESERIAL_STORAGE_TABLE_H_
#define PRESERIAL_STORAGE_TABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/btree.h"
#include "storage/constraint.h"
#include "storage/row.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace preserial::storage {

// Heap-of-rows table with a B+-tree primary-key index and CHECK
// constraints. Row slots are recycled through a free list; RowIds address
// slots and stay stable for the lifetime of a row version.
//
// Not thread-safe: serialization of access is the job of the layers above
// (strict 2PL baseline or the GTM's SSTs).
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // --- constraints ---------------------------------------------------------

  // Registers a CHECK constraint. Existing rows are validated; fails with
  // kConstraintViolation if any live row already violates it.
  Status AddConstraint(CheckConstraint constraint);
  const std::vector<CheckConstraint>& constraints() const {
    return constraints_;
  }
  // All constraints that reference `column`.
  std::vector<const CheckConstraint*> ConstraintsOn(size_t column) const;

  // --- mutations -----------------------------------------------------------

  // Inserts a row (validated against schema, constraints, PK uniqueness).
  // Returns the new RowId.
  Result<RowId> Insert(Row row);

  // Replaces the whole row identified by primary key `key`. The primary key
  // value itself may change; uniqueness is preserved.
  Status UpdateByKey(const Value& key, Row row);

  // Deletes by primary key.
  Status DeleteByKey(const Value& key);

  // --- reads ---------------------------------------------------------------

  // Copy of the row with primary key `key`.
  Result<Row> GetByKey(const Value& key) const;

  // Copy of one cell.
  Result<Value> GetColumnByKey(const Value& key, size_t column) const;

  // Key-ordered scan over live rows; visitor returns false to stop.
  void Scan(const std::function<bool(const Value& key, const Row&)>& visit)
      const;
  // Key-range scan [lo, hi] (unset = unbounded).
  void ScanRange(
      const std::optional<Value>& lo, const std::optional<Value>& hi,
      const std::function<bool(const Value& key, const Row&)>& visit) const;

  size_t row_count() const { return pk_index_.size(); }

  // Structural self-check for tests: index entries point at live slots that
  // agree on the key; live slot count matches the index.
  Status CheckInvariants() const;

 private:
  struct Slot {
    bool live = false;
    Row row;
  };

  Status ValidateAgainstConstraints(const Row& row) const;
  RowId AllocateSlot(Row row);
  void FreeSlot(RowId rid);

  std::string name_;
  Schema schema_;
  std::vector<Slot> slots_;
  std::vector<RowId> free_list_;
  BTree pk_index_;
  std::vector<CheckConstraint> constraints_;
};

}  // namespace preserial::storage

#endif  // PRESERIAL_STORAGE_TABLE_H_
