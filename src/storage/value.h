#ifndef PRESERIAL_STORAGE_VALUE_H_
#define PRESERIAL_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/coding.h"
#include "common/status.h"

namespace preserial::storage {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

const char* ValueTypeName(ValueType t);

// Dynamically typed cell value: the unit of data the whole stack operates
// on (LDBS rows, GTM virtual copies, reconciliation algebra). Value is a
// regular type — copyable, movable, equality-comparable — so it can flow
// through containers and logs without ceremony.
class Value {
 public:
  // Null by default.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value Int(int64_t i) { return Value(std::in_place_type<int64_t>, i); }
  static Value Double(double d) {
    return Value(std::in_place_type<double>, d);
  }
  static Value String(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  // Typed accessors; calling the wrong one is a programming error (asserts).
  bool as_bool() const;
  int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  // Numeric coercion: int64 and double read as double. Errors on other
  // types.
  Result<double> ToDouble() const;

  // Arithmetic over numerics. int64 op int64 stays int64 (checked for
  // overflow); any double operand promotes to double. Division by zero and
  // non-numeric operands are errors. These are the building blocks of the
  // paper's add/sub and mul/div operation classes.
  static Result<Value> Add(const Value& a, const Value& b);
  static Result<Value> Sub(const Value& a, const Value& b);
  static Result<Value> Mul(const Value& a, const Value& b);
  static Result<Value> Div(const Value& a, const Value& b);

  // Three-way comparison within a comparable domain (numerics compare
  // cross-type by magnitude). Error for incomparable types (e.g. string vs
  // int).
  static Result<int> Compare(const Value& a, const Value& b);

  // Total order over all values (Null < Bool < numeric < String), suitable
  // for index keys regardless of schema. Numerics order by magnitude, with
  // int64 before double on exact ties so the order stays antisymmetric;
  // NaN doubles sort after every other numeric (and equal to each other),
  // keeping the relation a strict weak ordering.
  static int CompareTotal(const Value& a, const Value& b);

  // Exact structural equality (type and representation both equal).
  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  // Binary serialization (type tag + payload), used by the WAL and the
  // replica log.
  void EncodeTo(std::string* out) const;
  // Decodes one value starting at *offset, advancing it. Corruption-safe.
  static Result<Value> DecodeFrom(std::string_view buf, size_t* offset);
  // The same from a shared reader; a defect latches in `in`.
  static Value ReadFrom(Reader* in);

  // Human-readable rendering ("NULL", "42", "3.5", "'abc'", "true").
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string>;
  // Builds the alternative in place. Moving a freshly built variant
  // instead makes gcc 12 under -fsanitize=address report its inlined
  // string branch as maybe-uninitialized wherever a Value is made.
  template <typename T>
  Value(std::in_place_type_t<T> type, T v) : rep_(type, std::move(v)) {}

  Rep rep_;
};

}  // namespace preserial::storage

#endif  // PRESERIAL_STORAGE_VALUE_H_
