#include "storage/table.h"

#include <utility>

#include "common/strings.h"

namespace preserial::storage {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Status Table::AddConstraint(CheckConstraint constraint) {
  if (constraint.column() >= schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("constraint '%s' references column %zu beyond schema",
                  constraint.name().c_str(), constraint.column()));
  }
  Status violation = Status::Ok();
  Scan([&](const Value&, const Row& row) {
    Status s = constraint.Check(row);
    if (!s.ok()) {
      violation = s;
      return false;
    }
    return true;
  });
  PRESERIAL_RETURN_IF_ERROR(violation);
  constraints_.push_back(std::move(constraint));
  return Status::Ok();
}

std::vector<const CheckConstraint*> Table::ConstraintsOn(size_t column) const {
  std::vector<const CheckConstraint*> out;
  for (const CheckConstraint& c : constraints_) {
    if (c.column() == column) out.push_back(&c);
  }
  return out;
}

Status Table::ValidateAgainstConstraints(const Row& row) const {
  for (const CheckConstraint& c : constraints_) {
    PRESERIAL_RETURN_IF_ERROR(c.Check(row));
  }
  return Status::Ok();
}

RowId Table::AllocateSlot(Row row) {
  if (!free_list_.empty()) {
    const RowId rid = free_list_.back();
    free_list_.pop_back();
    slots_[rid].live = true;
    slots_[rid].row = std::move(row);
    return rid;
  }
  slots_.push_back(Slot{true, std::move(row)});
  return slots_.size() - 1;
}

void Table::FreeSlot(RowId rid) {
  slots_[rid].live = false;
  slots_[rid].row = Row();
  free_list_.push_back(rid);
}

Result<RowId> Table::Insert(Row row) {
  PRESERIAL_RETURN_IF_ERROR(schema_.ValidateRow(row.values()));
  PRESERIAL_RETURN_IF_ERROR(ValidateAgainstConstraints(row));
  const Value key = row.at(schema_.primary_key());
  if (pk_index_.Contains(key)) {
    return Status::AlreadyExists(StrFormat(
        "table '%s': duplicate primary key %s", name_.c_str(),
        key.ToString().c_str()));
  }
  const RowId rid = AllocateSlot(std::move(row));
  Status s = pk_index_.Insert(key, rid);
  if (!s.ok()) {
    FreeSlot(rid);
    return s;
  }
  return rid;
}

Status Table::UpdateByKey(const Value& key, Row row) {
  PRESERIAL_RETURN_IF_ERROR(schema_.ValidateRow(row.values()));
  PRESERIAL_RETURN_IF_ERROR(ValidateAgainstConstraints(row));
  PRESERIAL_ASSIGN_OR_RETURN(RowId rid, pk_index_.Lookup(key));
  const Value& new_key = row.at(schema_.primary_key());
  if (new_key != key) {
    // Primary key changes move the index entry.
    if (pk_index_.Contains(new_key)) {
      return Status::AlreadyExists(StrFormat(
          "table '%s': update collides on primary key %s", name_.c_str(),
          new_key.ToString().c_str()));
    }
    PRESERIAL_RETURN_IF_ERROR(pk_index_.Remove(key));
    PRESERIAL_RETURN_IF_ERROR(pk_index_.Insert(new_key, rid));
  }
  slots_[rid].row = std::move(row);
  return Status::Ok();
}

Status Table::DeleteByKey(const Value& key) {
  PRESERIAL_ASSIGN_OR_RETURN(RowId rid, pk_index_.Lookup(key));
  PRESERIAL_RETURN_IF_ERROR(pk_index_.Remove(key));
  FreeSlot(rid);
  return Status::Ok();
}

Result<Row> Table::GetByKey(const Value& key) const {
  PRESERIAL_ASSIGN_OR_RETURN(RowId rid, pk_index_.Lookup(key));
  return slots_[rid].row;
}

Result<Value> Table::GetColumnByKey(const Value& key, size_t column) const {
  if (column >= schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("table '%s': column %zu out of range", name_.c_str(),
                  column));
  }
  PRESERIAL_ASSIGN_OR_RETURN(Row row, GetByKey(key));
  return row.at(column);
}

void Table::Scan(
    const std::function<bool(const Value&, const Row&)>& visit) const {
  ScanRange(std::nullopt, std::nullopt, visit);
}

void Table::ScanRange(
    const std::optional<Value>& lo, const std::optional<Value>& hi,
    const std::function<bool(const Value&, const Row&)>& visit) const {
  pk_index_.Scan(lo, hi, [&](const Value& key, RowId rid) {
    return visit(key, slots_[rid].row);
  });
}

Status Table::CheckInvariants() const {
  PRESERIAL_RETURN_IF_ERROR(pk_index_.CheckInvariants());
  size_t live = 0;
  for (const Slot& s : slots_) {
    if (s.live) ++live;
  }
  if (live != pk_index_.size()) {
    return Status::Internal(StrFormat(
        "table '%s': %zu live slots but %zu index entries", name_.c_str(),
        live, pk_index_.size()));
  }
  Status bad = Status::Ok();
  pk_index_.ScanAll([&](const Value& key, RowId rid) {
    if (rid >= slots_.size() || !slots_[rid].live) {
      bad = Status::Internal("table: index points at dead slot");
      return false;
    }
    if (slots_[rid].row.at(schema_.primary_key()) != key) {
      bad = Status::Internal("table: index key disagrees with row");
      return false;
    }
    return true;
  });
  return bad;
}

}  // namespace preserial::storage
