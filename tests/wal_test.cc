#include "storage/wal.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/database.h"

namespace preserial::storage {
namespace {

Schema SampleSchema() {
  return Schema::Create(
             {
                 ColumnDef{"id", ValueType::kInt64, false},
                 ColumnDef{"qty", ValueType::kInt64, false},
                 ColumnDef{"tag", ValueType::kString, true},
             },
             0)
      .value();
}

WalRecord RoundTrip(const WalRecord& in) {
  std::string payload;
  in.EncodeTo(&payload);
  Result<WalRecord> out = WalRecord::DecodeFrom(payload);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.value_or(WalRecord{});
}

TEST(WalRecordTest, MarkerRecordsRoundTrip) {
  for (WalRecordType type : {WalRecordType::kBegin, WalRecordType::kCommit,
                             WalRecordType::kAbort,
                             WalRecordType::kCheckpoint}) {
    WalRecord r;
    r.type = type;
    r.txn_id = 42;
    const WalRecord back = RoundTrip(r);
    EXPECT_EQ(back.type, type);
    EXPECT_EQ(back.txn_id, 42u);
  }
}

TEST(WalRecordTest, InsertRoundTrips) {
  WalRecord r;
  r.type = WalRecordType::kInsert;
  r.txn_id = 7;
  r.table = "flights";
  r.row = Row({Value::Int(1), Value::Int(50), Value::String("x")});
  const WalRecord back = RoundTrip(r);
  EXPECT_EQ(back.table, "flights");
  EXPECT_EQ(back.row, r.row);
}

TEST(WalRecordTest, UpdateRoundTrips) {
  WalRecord r;
  r.type = WalRecordType::kUpdate;
  r.txn_id = 8;
  r.table = "flights";
  r.key = Value::Int(1);
  r.row = Row({Value::Int(1), Value::Int(49), Value::Null()});
  const WalRecord back = RoundTrip(r);
  EXPECT_EQ(back.key, Value::Int(1));
  EXPECT_EQ(back.row, r.row);
}

TEST(WalRecordTest, DeleteRoundTrips) {
  WalRecord r;
  r.type = WalRecordType::kDelete;
  r.txn_id = 9;
  r.table = "t";
  r.key = Value::String("k");
  const WalRecord back = RoundTrip(r);
  EXPECT_EQ(back.key, Value::String("k"));
}

TEST(WalRecordTest, CreateTableRoundTripsSchema) {
  WalRecord r;
  r.type = WalRecordType::kCreateTable;
  r.txn_id = kSystemTxnId;
  r.table = "flights";
  r.schema = SampleSchema();
  const WalRecord back = RoundTrip(r);
  EXPECT_EQ(back.schema.num_columns(), 3u);
  EXPECT_EQ(back.schema.primary_key(), 0u);
  EXPECT_EQ(back.schema.column(2).name, "tag");
  EXPECT_TRUE(back.schema.column(2).nullable);
  EXPECT_EQ(back.schema.column(1).type, ValueType::kInt64);
}

TEST(WalRecordTest, AddConstraintRoundTrips) {
  WalRecord r;
  r.type = WalRecordType::kAddConstraint;
  r.txn_id = kSystemTxnId;
  r.table = "flights";
  r.constraint =
      CheckConstraint("qty_nonneg", 1, CompareOp::kGe, Value::Int(0));
  const WalRecord back = RoundTrip(r);
  EXPECT_EQ(back.constraint.name(), "qty_nonneg");
  EXPECT_EQ(back.constraint.column(), 1u);
  EXPECT_EQ(back.constraint.op(), CompareOp::kGe);
  EXPECT_EQ(back.constraint.constant(), Value::Int(0));
}

TEST(WalRecordTest, TrailingBytesDetected) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.txn_id = 1;
  std::string payload;
  r.EncodeTo(&payload);
  payload += "junk";
  EXPECT_EQ(WalRecord::DecodeFrom(payload).status().code(),
            StatusCode::kCorruption);
}

// Overwrites the little-endian u64 at `at` (a count or length field).
void PutU64At(std::string* buf, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*buf)[at + i] = static_cast<char>(v >> (8 * i));
}

// A count no payload can hold is corruption, refused before any allocation
// is sized by it.
TEST(WalRecordTest, CorruptClusterBranchCountIsCorruption) {
  WalRecord r;
  r.type = WalRecordType::kClusterPrepare;
  r.txn_id = 5;
  r.branches = {{1, 2}};
  std::string payload;
  r.EncodeTo(&payload);
  PutU64At(&payload, 9, uint64_t{1} << 40);  // After the type and txn id.
  EXPECT_EQ(WalRecord::DecodeFrom(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(WalRecordTest, CorruptSchemaArityIsCorruption) {
  WalRecord r;
  r.type = WalRecordType::kCreateTable;
  r.txn_id = kSystemTxnId;
  r.table = "t";
  r.schema = SampleSchema();
  std::string payload;
  r.EncodeTo(&payload);
  PutU64At(&payload, 9 + 8 + 1, uint64_t{1} << 62);  // After the table name.
  EXPECT_EQ(WalRecord::DecodeFrom(payload).status().code(),
            StatusCode::kCorruption);
}

// Every encoder writes in-range enum bytes and 0/1 flags, so any other
// byte there is corruption, caught at decode.
TEST(WalRecordTest, NonCanonicalColumnBytesAreCorruption) {
  WalRecord r;
  r.type = WalRecordType::kCreateTable;
  r.txn_id = kSystemTxnId;
  r.table = "t";
  r.schema = SampleSchema();
  std::string payload;
  r.EncodeTo(&payload);
  // Column 0 ("id"): its name, then the type byte and the nullable flag.
  const size_t type_at = 9 + 8 + 1 + 8 + 8 + 2;
  ASSERT_EQ(payload[type_at], static_cast<char>(ValueType::kInt64));
  ASSERT_EQ(payload[type_at + 1], 0);
  const std::vector<std::pair<size_t, char>> defects = {
      {type_at, 5}, {type_at, static_cast<char>(0xff)}, {type_at + 1, 2}};
  for (const auto& [at, byte] : defects) {
    std::string bad = payload;
    bad[at] = byte;
    EXPECT_EQ(WalRecord::DecodeFrom(bad).status().code(),
              StatusCode::kCorruption)
        << "byte " << at << " = " << static_cast<int>(byte);
  }
}

TEST(WalRecordTest, OutOfRangeCompareOpIsCorruption) {
  WalRecord r;
  r.type = WalRecordType::kAddConstraint;
  r.txn_id = kSystemTxnId;
  r.table = "t";
  r.constraint = CheckConstraint("c", 1, CompareOp::kGe, Value::Int(0));
  std::string payload;
  r.EncodeTo(&payload);
  // The table name, the constraint name and the column, then the operator.
  const size_t op_at = 9 + 8 + 1 + 8 + 1 + 8;
  ASSERT_EQ(payload[op_at], static_cast<char>(CompareOp::kGe));
  payload[op_at] = 6;
  EXPECT_EQ(WalRecord::DecodeFrom(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(WalScanTest, RetiredIndexRecordTypesAreRefused) {
  // Types 11 and 12 once carried secondary-index DDL. A well-framed record
  // of either type, in the middle of a log, is refused by the decoder and
  // fails recovery; it is never skipped.
  for (const char type : {11, 12}) {
    WalRecord create;
    create.type = WalRecordType::kCreateTable;
    create.txn_id = kSystemTxnId;
    create.table = "t";
    create.schema = SampleSchema();
    WalRecord begin;
    begin.type = WalRecordType::kBegin;
    begin.txn_id = kSystemTxnId;
    std::string retired;
    begin.EncodeTo(&retired);
    retired[0] = type;

    Result<WalRecord> decoded = WalRecord::DecodeFrom(retired);
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);

    std::string log;
    FrameRecord(create, &log);
    FramePayload(retired, &log);  // Valid length and CRC.
    FrameRecord(begin, &log);
    EXPECT_EQ(ScanWal(log).status.code(), StatusCode::kCorruption);

    auto storage = std::make_unique<MemoryWalStorage>();
    ASSERT_TRUE(storage->Reset(log).ok());
    Database db(std::move(storage));
    EXPECT_EQ(db.Open().status().code(), StatusCode::kCorruption);
  }
}

TEST(WalWriterScanTest, WritesAndScansSequence) {
  MemoryWalStorage storage;
  WalWriter writer(&storage);
  ASSERT_TRUE(writer.LogBegin(1).ok());
  ASSERT_TRUE(writer.LogInsert(1, "t", Row({Value::Int(5)})).ok());
  ASSERT_TRUE(writer.LogCommit(1).ok());
  ASSERT_TRUE(writer.LogBegin(2).ok());
  ASSERT_TRUE(writer.LogAbort(2).ok());

  WalScanResult scan = ScanWal(storage.ReadAll().value());
  ASSERT_TRUE(scan.status.ok());
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(scan.records[1].type, WalRecordType::kInsert);
  EXPECT_EQ(scan.records[2].type, WalRecordType::kCommit);
  EXPECT_EQ(scan.records[4].type, WalRecordType::kAbort);
  EXPECT_EQ(scan.records[4].txn_id, 2u);
}

TEST(WalScanTest, TornTailIsDroppedSilently) {
  MemoryWalStorage storage;
  WalWriter writer(&storage);
  ASSERT_TRUE(writer.LogBegin(1).ok());
  ASSERT_TRUE(writer.LogCommit(1).ok());
  const size_t full = storage.ReadAll().value().size();
  ASSERT_TRUE(writer.LogBegin(2).ok());
  // Lose part of the last record (torn write at crash).
  storage.CorruptTail(3);

  WalScanResult scan = ScanWal(storage.ReadAll().value());
  EXPECT_TRUE(scan.status.ok());
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.bytes_consumed, full);
}

TEST(WalScanTest, CorruptedCrcIsAnError) {
  MemoryWalStorage storage;
  WalWriter writer(&storage);
  ASSERT_TRUE(writer.LogBegin(1).ok());
  ASSERT_TRUE(writer.LogCommit(1).ok());
  std::string log = storage.ReadAll().value();
  // Flip a payload byte of the FIRST record: mid-log corruption.
  log[9] = static_cast<char>(log[9] ^ 0xff);
  WalScanResult scan = ScanWal(log);
  EXPECT_EQ(scan.status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(scan.records.empty());
}

TEST(WalScanTest, EmptyLogIsFine) {
  WalScanResult scan = ScanWal("");
  EXPECT_TRUE(scan.status.ok());
  EXPECT_TRUE(scan.records.empty());
}

TEST(FileWalStorageTest, AppendReadResetRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/preserial_wal_test.log";
  std::remove(path.c_str());
  {
    FileWalStorage storage(path);
    EXPECT_EQ(storage.ReadAll().value(), "");  // Missing file == empty.
    ASSERT_TRUE(storage.Append("hello ").ok());
    ASSERT_TRUE(storage.Append("world").ok());
    EXPECT_EQ(storage.ReadAll().value(), "hello world");
    ASSERT_TRUE(storage.Reset("fresh").ok());
    EXPECT_EQ(storage.ReadAll().value(), "fresh");
    ASSERT_TRUE(storage.Append("!").ok());
    EXPECT_EQ(storage.ReadAll().value(), "fresh!");
  }
  // A new handle sees the same bytes (durability across "restarts").
  FileWalStorage reopened(path);
  EXPECT_EQ(reopened.ReadAll().value(), "fresh!");
  std::remove(path.c_str());
}

TEST(FileWalStorageTest, FullWalRoundTripThroughFile) {
  const std::string path =
      ::testing::TempDir() + "/preserial_wal_records.log";
  std::remove(path.c_str());
  {
    FileWalStorage storage(path);
    WalWriter writer(&storage);
    ASSERT_TRUE(writer.LogCreateTable(kSystemTxnId, "t", SampleSchema()).ok());
    ASSERT_TRUE(writer.LogBegin(3).ok());
    ASSERT_TRUE(
        writer
            .LogInsert(3, "t",
                       Row({Value::Int(1), Value::Int(2), Value::Null()}))
            .ok());
    ASSERT_TRUE(writer.LogCommit(3).ok());
  }
  FileWalStorage reopened(path);
  WalScanResult scan = ScanWal(reopened.ReadAll().value());
  ASSERT_TRUE(scan.status.ok());
  EXPECT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kCreateTable);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace preserial::storage
