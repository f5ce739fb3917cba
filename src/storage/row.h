#ifndef PRESERIAL_STORAGE_ROW_H_
#define PRESERIAL_STORAGE_ROW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/status.h"
#include "storage/value.h"

namespace preserial::storage {

// Stable identifier of a row slot within a table (index into the table's
// slot vector; slots are reused via a free list, so RowIds are only unique
// among live rows).
using RowId = uint64_t;
constexpr RowId kInvalidRowId = ~0ULL;

// A tuple of cell values. Thin wrapper over std::vector<Value> that adds
// serialization and rendering; schema checks live in Schema::ValidateRow.
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Set(size_t i, Value v) { values_[i] = std::move(v); }

  friend bool operator==(const Row& a, const Row& b) {
    return a.values_ == b.values_;
  }
  friend bool operator!=(const Row& a, const Row& b) { return !(a == b); }

  void EncodeTo(std::string* out) const;
  static Result<Row> DecodeFrom(std::string_view buf, size_t* offset);
  // The same from a shared reader; a defect latches in `in`.
  static Row ReadFrom(Reader* in);

  // "(v1, v2, ...)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace preserial::storage

#endif  // PRESERIAL_STORAGE_ROW_H_
