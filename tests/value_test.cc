#include "storage/value.h"

#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/row.h"

namespace preserial::storage {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_FALSE(v.is_numeric());
}

TEST(ValueTest, TypedConstructionAndAccess) {
  EXPECT_EQ(Value::Bool(true).as_bool(), true);
  EXPECT_EQ(Value::Int(-5).as_int(), -5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::String("abc").as_string(), "abc");
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::Bool(true).is_numeric());
  EXPECT_FALSE(Value::String("x").is_numeric());
}

TEST(ValueTest, ToDoubleCoercesNumerics) {
  EXPECT_DOUBLE_EQ(Value::Int(4).ToDouble().value(), 4.0);
  EXPECT_DOUBLE_EQ(Value::Double(4.5).ToDouble().value(), 4.5);
  EXPECT_FALSE(Value::String("4").ToDouble().ok());
  EXPECT_FALSE(Value::Null().ToDouble().ok());
}

TEST(ValueArithmeticTest, IntStaysInt) {
  const Value r = Value::Add(Value::Int(2), Value::Int(3)).value();
  EXPECT_EQ(r.type(), ValueType::kInt64);
  EXPECT_EQ(r.as_int(), 5);
  EXPECT_EQ(Value::Sub(Value::Int(2), Value::Int(3)).value().as_int(), -1);
  EXPECT_EQ(Value::Mul(Value::Int(4), Value::Int(3)).value().as_int(), 12);
  EXPECT_EQ(Value::Div(Value::Int(7), Value::Int(2)).value().as_int(), 3);
}

TEST(ValueArithmeticTest, MixedPromotesToDouble) {
  const Value r = Value::Add(Value::Int(2), Value::Double(0.5)).value();
  EXPECT_EQ(r.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(r.as_double(), 2.5);
  EXPECT_DOUBLE_EQ(
      Value::Div(Value::Double(7), Value::Int(2)).value().as_double(), 3.5);
}

TEST(ValueArithmeticTest, DivisionByZeroFails) {
  EXPECT_EQ(Value::Div(Value::Int(1), Value::Int(0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Value::Div(Value::Double(1), Value::Double(0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ValueArithmeticTest, IntOverflowDetected) {
  const Value max = Value::Int(std::numeric_limits<int64_t>::max());
  EXPECT_FALSE(Value::Add(max, Value::Int(1)).ok());
  const Value min = Value::Int(std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(Value::Sub(min, Value::Int(1)).ok());
  EXPECT_FALSE(Value::Mul(max, Value::Int(2)).ok());
  EXPECT_FALSE(Value::Div(min, Value::Int(-1)).ok());
}

TEST(ValueArithmeticTest, NonNumericOperandsFail) {
  EXPECT_FALSE(Value::Add(Value::String("a"), Value::Int(1)).ok());
  EXPECT_FALSE(Value::Mul(Value::Bool(true), Value::Int(1)).ok());
  EXPECT_FALSE(Value::Sub(Value::Null(), Value::Int(1)).ok());
}

TEST(ValueCompareTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Compare(Value::Int(2), Value::Double(2.0)).value(), 0);
  EXPECT_LT(Value::Compare(Value::Int(1), Value::Double(1.5)).value(), 0);
  EXPECT_GT(Value::Compare(Value::Double(3.5), Value::Int(3)).value(), 0);
}

TEST(ValueCompareTest, StringsAndBools) {
  EXPECT_LT(Value::Compare(Value::String("a"), Value::String("b")).value(),
            0);
  EXPECT_EQ(Value::Compare(Value::String("x"), Value::String("x")).value(),
            0);
  EXPECT_LT(Value::Compare(Value::Bool(false), Value::Bool(true)).value(), 0);
}

TEST(ValueCompareTest, IncomparableTypesError) {
  EXPECT_FALSE(Value::Compare(Value::String("1"), Value::Int(1)).ok());
  EXPECT_FALSE(Value::Compare(Value::Bool(true), Value::Int(1)).ok());
}

TEST(ValueTotalOrderTest, RanksTypes) {
  // Null < Bool < numeric < String.
  EXPECT_LT(Value::CompareTotal(Value::Null(), Value::Bool(false)), 0);
  EXPECT_LT(Value::CompareTotal(Value::Bool(true), Value::Int(-100)), 0);
  EXPECT_LT(Value::CompareTotal(Value::Int(5), Value::String("")), 0);
}

TEST(ValueTotalOrderTest, IsAntisymmetricAndTransitiveOnSamples) {
  std::vector<Value> vs = {
      Value::Null(),        Value::Bool(false), Value::Bool(true),
      Value::Int(-2),       Value::Int(0),      Value::Int(3),
      Value::Double(-2.5),  Value::Double(0.0), Value::Double(3.0),
      Value::String(""),    Value::String("a"), Value::String("ab"),
  };
  for (const Value& a : vs) {
    EXPECT_EQ(Value::CompareTotal(a, a), 0);
    for (const Value& b : vs) {
      EXPECT_EQ(Value::CompareTotal(a, b), -Value::CompareTotal(b, a));
      for (const Value& c : vs) {
        if (Value::CompareTotal(a, b) < 0 && Value::CompareTotal(b, c) < 0) {
          EXPECT_LT(Value::CompareTotal(a, c), 0);
        }
      }
    }
  }
}

TEST(ValueTotalOrderTest, NanSortsAfterEveryNumber) {
  const Value nan = Value::Double(std::nan(""));
  EXPECT_EQ(Value::CompareTotal(nan, nan), 0);
  EXPECT_GT(Value::CompareTotal(nan, Value::Double(1e308)), 0);
  EXPECT_GT(Value::CompareTotal(nan, Value::Int(5)), 0);
  EXPECT_LT(Value::CompareTotal(Value::Int(5), nan), 0);
  // Still below strings (type rank wins).
  EXPECT_LT(Value::CompareTotal(nan, Value::String("")), 0);
}

TEST(ValueTotalOrderTest, IntBeforeDoubleOnExactTie) {
  EXPECT_LT(Value::CompareTotal(Value::Int(3), Value::Double(3.0)), 0);
  EXPECT_GT(Value::CompareTotal(Value::Double(3.0), Value::Int(3)), 0);
}

TEST(ValueEqualityTest, StructuralEquality) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Double(3.0));  // Different representation.
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::String("a"), Value::String("b"));
}

void ExpectRoundTrips(const Value& original) {
  std::string buf;
  original.EncodeTo(&buf);
  size_t offset = 0;
  Result<Value> decoded = Value::DecodeFrom(buf, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), original);
  EXPECT_EQ(offset, buf.size());
}

class ValueRoundTripTest : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTripTest, EncodeDecodeRoundTrips) {
  ExpectRoundTrips(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ValueRoundTripTest,
    ::testing::Values(Value::Int(0), Value::Int(-1),
                      Value::Int(std::numeric_limits<int64_t>::min()),
                      Value::Int(std::numeric_limits<int64_t>::max()),
                      Value::Double(0.0), Value::Double(-1.25),
                      Value::Double(1e300)));

// gtest prints a Value parameter as a dump of its bytes, and the test names
// carry that dump. For null, bool and string values the bytes start with
// uninitialised storage or a heap pointer, so those names would change from
// one build to the next; these cases print as a fixed label instead.
struct LabelledValue {
  const char* label;
  Value value;
};

void PrintTo(const LabelledValue& c, std::ostream* os) { *os << c.label; }

class LabelledValueRoundTripTest
    : public ::testing::TestWithParam<LabelledValue> {};

TEST_P(LabelledValueRoundTripTest, EncodeDecodeRoundTrips) {
  ExpectRoundTrips(GetParam().value);
}

INSTANTIATE_TEST_SUITE_P(
    NonNumeric, LabelledValueRoundTripTest,
    ::testing::Values(
        LabelledValue{"null", Value::Null()},
        LabelledValue{"true", Value::Bool(true)},
        LabelledValue{"false", Value::Bool(false)},
        LabelledValue{"empty_string", Value::String("")},
        LabelledValue{"hello", Value::String("hello")},
        LabelledValue{"binary_string",
                      Value::String(std::string("\0binary\xff", 8))}));

TEST(ValueDecodeTest, TruncatedBufferFailsCleanly) {
  std::string buf;
  Value::Int(123456789).EncodeTo(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t offset = 0;
    Result<Value> r = Value::DecodeFrom(buf.substr(0, cut), &offset);
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

TEST(ValueDecodeTest, BadTypeTagFails) {
  std::string buf = "\x7f";
  size_t offset = 0;
  EXPECT_EQ(Value::DecodeFrom(buf, &offset).status().code(),
            StatusCode::kCorruption);
}

// Value's encoder writes a bool as 0 or 1; any other byte is corruption.
TEST(ValueDecodeTest, NonCanonicalBoolIsCorruption) {
  for (const char byte : {char{2}, char{0x7f}, static_cast<char>(0xff)}) {
    const std::string buf = {static_cast<char>(ValueType::kBool), byte};
    size_t offset = 0;
    EXPECT_EQ(Value::DecodeFrom(buf, &offset).status().code(),
              StatusCode::kCorruption)
        << static_cast<int>(byte);
  }
}

// An arity no buffer can hold is corruption, refused before the decoder
// reserves room for it.
TEST(RowDecodeTest, CorruptArityIsCorruption) {
  std::string buf;
  Row({Value::Int(1), Value::Null()}).EncodeTo(&buf);
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(0xff);
  size_t offset = 0;
  EXPECT_EQ(Row::DecodeFrom(buf, &offset).status().code(),
            StatusCode::kCorruption);
}

TEST(ValueDecodeTest, SequentialDecodeAdvancesOffset) {
  std::string buf;
  Value::Int(1).EncodeTo(&buf);
  Value::String("two").EncodeTo(&buf);
  Value::Double(3.0).EncodeTo(&buf);
  size_t offset = 0;
  EXPECT_EQ(Value::DecodeFrom(buf, &offset).value(), Value::Int(1));
  EXPECT_EQ(Value::DecodeFrom(buf, &offset).value(), Value::String("two"));
  EXPECT_EQ(Value::DecodeFrom(buf, &offset).value(), Value::Double(3.0));
  EXPECT_EQ(offset, buf.size());
}

TEST(ValueToStringTest, Rendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
}

TEST(ValueRandomizedTest, RoundTripFuzz) {
  Rng rng(101);
  for (int iter = 0; iter < 500; ++iter) {
    Value v;
    switch (rng.NextBounded(5)) {
      case 0:
        v = Value::Null();
        break;
      case 1:
        v = Value::Bool(rng.NextBool(0.5));
        break;
      case 2:
        v = Value::Int(static_cast<int64_t>(rng.Next()));
        break;
      case 3:
        v = Value::Double(rng.NextDouble() * 1e6 - 5e5);
        break;
      case 4: {
        std::string s;
        const size_t len = rng.NextBounded(32);
        for (size_t i = 0; i < len; ++i) {
          s.push_back(static_cast<char>(rng.NextBounded(256)));
        }
        v = Value::String(std::move(s));
        break;
      }
    }
    std::string buf;
    v.EncodeTo(&buf);
    size_t offset = 0;
    Result<Value> back = Value::DecodeFrom(buf, &offset);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), v);
  }
}

}  // namespace
}  // namespace preserial::storage
