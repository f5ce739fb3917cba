#include "storage/row.h"

#include "common/strings.h"

namespace preserial::storage {

void Row::EncodeTo(std::string* out) const {
  // Arity as a fixed u32: rows are small and the WAL cares more about
  // simplicity than byte shaving.
  Writer(out).PutU32(static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) v.EncodeTo(out);
}

Row Row::ReadFrom(Reader* in) {
  const uint32_t n = in->Count<uint32_t>(1);  // A value takes >= 1 byte.
  std::vector<Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n && in->ok(); ++i) {
    values.push_back(Value::ReadFrom(in));
  }
  return Row(std::move(values));
}

Result<Row> Row::DecodeFrom(std::string_view buf, size_t* offset) {
  Reader in(buf, "row decode", *offset);
  Row row = ReadFrom(&in);
  PRESERIAL_RETURN_IF_ERROR(in.status());
  *offset = in.offset();
  return row;
}

std::string Row::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) parts.push_back(v.ToString());
  return "(" + Join(parts, ", ") + ")";
}

}  // namespace preserial::storage
