#include "storage/value.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace preserial::storage {

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

// Total order over doubles for index keys: NaNs sort after every number and
// compare equal to each other, so strict-weak-ordering holds even for
// pathological inputs.
int CompareDoublesTotal(double a, double b) {
  const bool na = std::isnan(a);
  const bool nb = std::isnan(b);
  if (na || nb) {
    if (na && nb) return 0;
    return na ? 1 : -1;
  }
  return CompareDoubles(a, b);
}

}  // namespace

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

ValueType Value::type() const {
  return static_cast<ValueType>(rep_.index());
}

bool Value::as_bool() const {
  assert(type() == ValueType::kBool);
  return std::get<bool>(rep_);
}

int64_t Value::as_int() const {
  assert(type() == ValueType::kInt64);
  return std::get<int64_t>(rep_);
}

double Value::as_double() const {
  assert(type() == ValueType::kDouble);
  return std::get<double>(rep_);
}

const std::string& Value::as_string() const {
  assert(type() == ValueType::kString);
  return std::get<std::string>(rep_);
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(as_int());
    case ValueType::kDouble:
      return as_double();
    default:
      return Status::InvalidArgument(
          StrFormat("cannot coerce %s to double", ValueTypeName(type())));
  }
}

namespace {

enum class ArithOp { kAdd, kSub, kMul, kDiv };

Result<Value> Arith(ArithOp op, const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::InvalidArgument(
        StrFormat("arithmetic requires numeric operands, got %s and %s",
                  ValueTypeName(a.type()), ValueTypeName(b.type())));
  }
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    const int64_t x = a.as_int();
    const int64_t y = b.as_int();
    int64_t r = 0;
    bool overflow = false;
    switch (op) {
      case ArithOp::kAdd:
        overflow = __builtin_add_overflow(x, y, &r);
        break;
      case ArithOp::kSub:
        overflow = __builtin_sub_overflow(x, y, &r);
        break;
      case ArithOp::kMul:
        overflow = __builtin_mul_overflow(x, y, &r);
        break;
      case ArithOp::kDiv:
        if (y == 0) return Status::InvalidArgument("integer division by zero");
        if (x == std::numeric_limits<int64_t>::min() && y == -1) {
          overflow = true;
        } else {
          r = x / y;
        }
        break;
    }
    if (overflow) return Status::InvalidArgument("int64 overflow");
    return Value::Int(r);
  }
  const double x = a.ToDouble().value();
  const double y = b.ToDouble().value();
  switch (op) {
    case ArithOp::kAdd:
      return Value::Double(x + y);
    case ArithOp::kSub:
      return Value::Double(x - y);
    case ArithOp::kMul:
      return Value::Double(x * y);
    case ArithOp::kDiv:
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(x / y);
  }
  return Status::Internal("unreachable arithmetic op");
}

}  // namespace

Result<Value> Value::Add(const Value& a, const Value& b) {
  return Arith(ArithOp::kAdd, a, b);
}
Result<Value> Value::Sub(const Value& a, const Value& b) {
  return Arith(ArithOp::kSub, a, b);
}
Result<Value> Value::Mul(const Value& a, const Value& b) {
  return Arith(ArithOp::kMul, a, b);
}
Result<Value> Value::Div(const Value& a, const Value& b) {
  return Arith(ArithOp::kDiv, a, b);
}

Result<int> Value::Compare(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    return CompareDoubles(a.ToDouble().value(), b.ToDouble().value());
  }
  if (a.type() != b.type()) {
    return Status::InvalidArgument(
        StrFormat("incomparable types %s and %s", ValueTypeName(a.type()),
                  ValueTypeName(b.type())));
  }
  switch (a.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
    case ValueType::kString:
      return a.as_string().compare(b.as_string()) < 0
                 ? -1
                 : (a.as_string() == b.as_string() ? 0 : 1);
    default:
      return Status::Internal("unreachable compare");
  }
}

int Value::CompareTotal(const Value& a, const Value& b) {
  auto rank = [](ValueType t) {
    switch (t) {
      case ValueType::kNull:
        return 0;
      case ValueType::kBool:
        return 1;
      case ValueType::kInt64:
      case ValueType::kDouble:
        return 2;  // Numerics share a rank and compare by magnitude.
      case ValueType::kString:
        return 3;
    }
    return 4;
  };
  const int ra = rank(a.type());
  const int rb = rank(b.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 2) {
    const int c =
        CompareDoublesTotal(a.ToDouble().value(), b.ToDouble().value());
    if (c != 0) return c;
    // Exact numeric tie across types: order int64 before double to keep the
    // relation antisymmetric for distinct representations.
    if (a.type() == b.type()) return 0;
    return a.type() == ValueType::kInt64 ? -1 : 1;
  }
  return Compare(a, b).value();
}

void Value::EncodeTo(std::string* out) const {
  Writer w(out);
  w.PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w.PutBool(as_bool());
      break;
    case ValueType::kInt64:
      w.PutU64(static_cast<uint64_t>(as_int()));
      break;
    case ValueType::kDouble:
      w.PutF64(as_double());
      break;
    case ValueType::kString:
      w.PutString(as_string());
      break;
  }
}

Value Value::ReadFrom(Reader* in) {
  switch (in->GetEnum(ValueType::kNull, ValueType::kString)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      return Value::Bool(in->GetBool());
    case ValueType::kInt64:
      return Value::Int(static_cast<int64_t>(in->GetU64()));
    case ValueType::kDouble:
      return Value::Double(in->GetF64());
    case ValueType::kString:
      return Value::String(in->GetString());
  }
  return Value::Null();
}

Result<Value> Value::DecodeFrom(std::string_view buf, size_t* offset) {
  Reader in(buf, "value decode", *offset);
  Value v = ReadFrom(&in);
  PRESERIAL_RETURN_IF_ERROR(in.status());
  *offset = in.offset();
  return v;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return as_bool() ? "true" : "false";
    case ValueType::kInt64:
      return StrFormat("%lld", static_cast<long long>(as_int()));
    case ValueType::kDouble:
      return StrFormat("%g", as_double());
    case ValueType::kString:
      return "'" + as_string() + "'";
  }
  return "?";
}

}  // namespace preserial::storage
