// The log byte format, pinned: the exact bytes of a fixed set of `Value`,
// `Row`, `WalRecord` and `ReplicaRecord` encodings and of one CRC frame.
// WAL images and replica node images are built from these bytes, so a
// codec refactor must leave every hex string below unchanged. Each pinned
// encoding also decodes and re-encodes to itself.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "replica/log.h"
#include "semantics/operation.h"
#include "storage/constraint.h"
#include "storage/row.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "storage/wal.h"

namespace preserial {
namespace {

using replica::ReplicaOpKind;
using replica::ReplicaRecord;
using semantics::Operation;
using storage::CheckConstraint;
using storage::ColumnDef;
using storage::CompareOp;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;
using storage::WalRecord;
using storage::WalRecordType;

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

struct Pinned {
  std::string name;
  std::string bytes;
};

void ExpectPinned(const std::vector<Pinned>& encodings,
                  const std::map<std::string, std::string>& expected) {
  for (const Pinned& p : encodings) {
    auto it = expected.find(p.name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no pin for " << p.name << ": " << Hex(p.bytes);
      continue;
    }
    EXPECT_EQ(Hex(p.bytes), it->second) << p.name;
  }
  EXPECT_EQ(encodings.size(), expected.size());
}

std::vector<Pinned> ValueEncodings() {
  const std::vector<std::pair<std::string, Value>> values = {
      {"null", Value::Null()},
      {"true", Value::Bool(true)},
      {"false", Value::Bool(false)},
      {"int", Value::Int(-2)},
      {"int_max", Value::Int(std::numeric_limits<int64_t>::max())},
      {"double", Value::Double(-1.25)},
      {"string", Value::String("ab")},
      {"empty_string", Value::String("")},
  };
  std::vector<Pinned> out;
  for (const auto& [name, v] : values) {
    std::string bytes;
    v.EncodeTo(&bytes);
    out.push_back({name, bytes});
  }
  return out;
}

Row SampleRow() {
  return Row({Value::Int(7), Value::String("x"), Value::Null(),
              Value::Bool(true), Value::Double(0.5)});
}

Schema SampleSchema() {
  return Schema::Create(
             {
                 ColumnDef{"id", ValueType::kInt64, false},
                 ColumnDef{"tag", ValueType::kString, true},
             },
             0)
      .value();
}

std::vector<Pinned> WalEncodings() {
  std::vector<WalRecord> records;
  auto add = [&records](WalRecordType type) -> WalRecord& {
    WalRecord r;
    r.type = type;
    r.txn_id = 0x0102030405060708ULL;
    records.push_back(r);
    return records.back();
  };
  add(WalRecordType::kBegin);
  add(WalRecordType::kCommit);
  add(WalRecordType::kAbort);
  add(WalRecordType::kInsert).table = "t";
  records.back().row = SampleRow();
  add(WalRecordType::kUpdate).table = "t";
  records.back().key = Value::Int(7);
  records.back().row = Row({Value::Int(7), Value::Int(8)});
  add(WalRecordType::kDelete).table = "t";
  records.back().key = Value::String("k");
  add(WalRecordType::kCreateTable).table = "t";
  records.back().schema = SampleSchema();
  add(WalRecordType::kAddConstraint).table = "t";
  records.back().constraint =
      CheckConstraint("nonneg", 1, CompareOp::kGe, Value::Int(0));
  add(WalRecordType::kCheckpoint);
  add(WalRecordType::kDropTable).table = "t";
  add(WalRecordType::kClusterPrepare).branches = {{1, 10}, {2, 20}};
  add(WalRecordType::kClusterCommit);
  add(WalRecordType::kClusterAbort);
  add(WalRecordType::kClusterEnd);
  std::vector<Pinned> out;
  for (const WalRecord& r : records) {
    std::string bytes;
    r.EncodeTo(&bytes);
    out.push_back({storage::WalRecordTypeName(r.type), bytes});
  }
  return out;
}

// Each kind with the fields it uses set, and every other field at its
// default, as the primary logs it.
ReplicaRecord SampleReplicaRecord(ReplicaOpKind kind) {
  ReplicaRecord r;
  r.lsn = 5;
  r.epoch = 2;
  r.time = 1.5;
  r.kind = kind;
  r.txn = 3;
  switch (kind) {
    case ReplicaOpKind::kBegin:
      r.priority = -1;
      break;
    case ReplicaOpKind::kInvoke:
      r.once = true;
      r.seq = 4;
      r.object = "X";
      r.member = 1;
      r.op = Operation::Sub(Value::Int(2));
      r.op.inverse = true;
      break;
    case ReplicaOpKind::kReadLocal:
      r.object = "X";
      r.member = 1;
      r.op = Operation::Read();
      break;
    case ReplicaOpKind::kAbortExpiredWaits:
    case ReplicaOpKind::kSleepIdle:
      r.duration = 30.0;
      break;
    case ReplicaOpKind::kRegisterObject:
      r.object = "X";
      r.table = "t";
      r.key = Value::Int(0);
      r.member_columns = {1, 2};
      r.dep_pairs = {{0, 1}};
      break;
    case ReplicaOpKind::kBootstrap:
      r.bootstrap = "wal";
      break;
    default:
      r.once = true;
      r.seq = 6;
      break;
  }
  return r;
}

std::vector<Pinned> ReplicaEncodings() {
  std::vector<Pinned> out;
  for (uint8_t k = 1; k <= 14; ++k) {
    const auto kind = static_cast<ReplicaOpKind>(k);
    std::string bytes;
    SampleReplicaRecord(kind).EncodeTo(&bytes);
    out.push_back({replica::ReplicaOpKindName(kind), bytes});
  }
  return out;
}

TEST(CodecFormatTest, ValueBytesArePinned) {
  ExpectPinned(
      ValueEncodings(),
      {
          {"null", "00"},
          {"true", "0101"},
          {"false", "0100"},
          {"int", "02feffffffffffffff"},
          {"int_max", "02ffffffffffffff7f"},
          {"double", "03000000000000f4bf"},
          {"string", "0402000000000000006162"},
          {"empty_string", "040000000000000000"},
      });
  for (const Pinned& p : ValueEncodings()) {
    size_t offset = 0;
    Result<Value> v = Value::DecodeFrom(p.bytes, &offset);
    ASSERT_TRUE(v.ok()) << p.name << ": " << v.status().ToString();
    EXPECT_EQ(offset, p.bytes.size()) << p.name;
    std::string again;
    v.value().EncodeTo(&again);
    EXPECT_EQ(again, p.bytes) << p.name;
  }
}

TEST(CodecFormatTest, RowBytesArePinned) {
  std::string bytes;
  SampleRow().EncodeTo(&bytes);
  EXPECT_EQ(Hex(bytes),
            "05000000"
            "020700000000000000"
            "04010000000000000078"
            "00"
            "0101"
            "03000000000000e03f");
  size_t offset = 0;
  Result<Row> row = Row::DecodeFrom(bytes, &offset);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(row.value(), SampleRow());
}

TEST(CodecFormatTest, WalRecordBytesArePinned) {
  ExpectPinned(WalEncodings(),
               {
                 {"BEGIN", "010807060504030201"},
                 {"COMMIT", "020807060504030201"},
                 {"ABORT", "030807060504030201"},
                 {"INSERT",
                  "04080706050403020101000000000000007405000000020700000000"
                  "0000000401000000000000007800010103000000000000e03f"},
                 {"UPDATE",
                  "05080706050403020101000000000000007402070000000000000002"
                  "000000020700000000000000020800000000000000"},
                 {"DELETE",
                  "0608070605040302010100000000000000740401000000000000006b"},
                 {"CREATE_TABLE",
                  "07080706050403020101000000000000007402000000000000000200"
                  "00000000000069640200030000000000000074616704010000000000"
                  "000000"},
                 {"ADD_CONSTRAINT",
                  "08080706050403020101000000000000007406000000000000006e6f"
                  "6e6e6567010000000000000005020000000000000000"},
                 {"CHECKPOINT", "090807060504030201"},
                 {"DROP_TABLE", "0a0807060504030201010000000000000074"},
                 {"CLUSTER_PREPARE",
                  "0d0807060504030201020000000000000001000000000000000a0000"
                  "000000000002000000000000001400000000000000"},
                 {"CLUSTER_COMMIT", "0e0807060504030201"},
                 {"CLUSTER_ABORT", "0f0807060504030201"},
                 {"CLUSTER_END", "100807060504030201"},
               });
  for (const Pinned& p : WalEncodings()) {
    Result<WalRecord> r = WalRecord::DecodeFrom(p.bytes);
    ASSERT_TRUE(r.ok()) << p.name << ": " << r.status().ToString();
    std::string again;
    r.value().EncodeTo(&again);
    EXPECT_EQ(again, p.bytes) << p.name;
  }
}

TEST(CodecFormatTest, ReplicaRecordBytesArePinned) {
  ExpectPinned(ReplicaEncodings(),
               {
                 {"BEGIN",
                  "05000000000000000200000000000000000000000000f83f01000000"
                  "0000000000000300000000000000ffffffffffffffff000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"INVOKE",
                  "05000000000000000200000000000000000000000000f83f02010400"
                  "00000000000003000000000000000000000000000000010000000000"
                  "00005801000000000000000401020200000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "00000000000000"},
                 {"READ_LOCAL",
                  "05000000000000000200000000000000000000000000f83f03000000"
                  "00000000000003000000000000000000000000000000010000000000"
                  "00005801000000000000000000000000000000000000000000000000"
                  "000000000000000000000000000000000000000000000000000000"},
                 {"COMMIT",
                  "05000000000000000200000000000000000000000000f83f04010600"
                  "00000000000003000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"ABORT",
                  "05000000000000000200000000000000000000000000f83f05010600"
                  "00000000000003000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"SLEEP",
                  "05000000000000000200000000000000000000000000f83f06010600"
                  "00000000000003000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"AWAKE",
                  "05000000000000000200000000000000000000000000f83f07010600"
                  "00000000000003000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"PREPARE",
                  "05000000000000000200000000000000000000000000f83f08010600"
                  "00000000000003000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"COMMIT_PREPARED",
                  "05000000000000000200000000000000000000000000f83f09010600"
                  "00000000000003000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"ABORT_PREPARED",
                  "05000000000000000200000000000000000000000000f83f0a010600"
                  "00000000000003000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"ABORT_EXPIRED_WAITS",
                  "05000000000000000200000000000000000000000000f83f0b000000"
                  "00000000000003000000000000000000000000000000000000000000"
                  "000000000000000000000000000000000000003e4000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"SLEEP_IDLE",
                  "05000000000000000200000000000000000000000000f83f0c000000"
                  "00000000000003000000000000000000000000000000000000000000"
                  "000000000000000000000000000000000000003e4000000000000000"
                  "0000000000000000000000000000000000000000000000000000"},
                 {"REGISTER_OBJECT",
                  "05000000000000000200000000000000000000000000f83f0d000000"
                  "00000000000003000000000000000000000000000000010000000000"
                  "00005800000000000000000000000000000000000000010000000000"
                  "00007402000000000000000002000000000000000100000000000000"
                  "02000000000000000100000000000000000000000000000001000000"
                  "000000000000000000000000"},
                 {"BOOTSTRAP",
                  "05000000000000000200000000000000000000000000f83f0e000000"
                  "00000000000003000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000003000000000000007761"
                  "6c"},
               });
  for (const Pinned& p : ReplicaEncodings()) {
    Result<ReplicaRecord> r = ReplicaRecord::DecodeFrom(p.bytes);
    ASSERT_TRUE(r.ok()) << p.name << ": " << r.status().ToString();
    std::string again;
    r.value().EncodeTo(&again);
    EXPECT_EQ(again, p.bytes) << p.name;
  }
}

TEST(CodecFormatTest, FrameBytesArePinned) {
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn_id = 9;
  std::string frame;
  storage::FrameRecord(commit, &frame);
  EXPECT_EQ(Hex(frame), "090000000327b0d7020900000000000000");
  Result<std::string_view> payload = replica::FramedPayload(frame);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(payload.value(), std::string_view(frame).substr(8));
  storage::FrameScanResult scan = storage::ScanFrames(frame + frame);
  ASSERT_TRUE(scan.status.ok()) << scan.status.ToString();
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.payloads[1], payload.value());
  EXPECT_EQ(scan.bytes_consumed, 2 * frame.size());
}

}  // namespace
}  // namespace preserial
