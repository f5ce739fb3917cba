// Replica op-log plumbing: record wire format, CRC-framed node logs, the
// group log's offset index over them, and the WAL-replay edge cases a real
// deployment hits — a torn final record after a mid-ship crash, duplicate-
// and corrupt-shipped frames, and a backup restart that re-syncs from its
// last durable LSN.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "replica/replica.h"
#include "storage/wal.h"

namespace preserial::replica {
namespace {

using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

std::string Framed(std::string_view payload) {
  std::string frame;
  storage::FramePayload(payload, &frame);
  return frame;
}

std::string Framed(const ReplicaRecord& rec) {
  std::string payload;
  rec.EncodeTo(&payload);
  return Framed(payload);
}

ReplicaRecord FullRecord(ReplicaOpKind kind) {
  ReplicaRecord rec;
  rec.lsn = 42;
  rec.epoch = 3;
  rec.time = 17.25;
  rec.kind = kind;
  rec.once = true;
  rec.seq = 9;
  rec.txn = 1234;
  rec.priority = -2;
  rec.object = "resources/7";
  rec.member = 1;
  rec.op = Operation::Sub(Value::Int(5));
  rec.duration = 30.0;
  rec.table = "resources";
  rec.key = Value::Int(7);
  rec.member_columns = {1, 2};
  rec.dep_pairs = {{0, 1}, {2, 1}};
  rec.bootstrap = "opaque-wal-bytes";
  return rec;
}

TEST(ReplicaRecordTest, RoundTripsEveryKindWithAllFields) {
  for (uint8_t k = 1; k <= 14; ++k) {
    const ReplicaRecord rec = FullRecord(static_cast<ReplicaOpKind>(k));
    std::string payload;
    rec.EncodeTo(&payload);
    Result<ReplicaRecord> back = ReplicaRecord::DecodeFrom(payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    const ReplicaRecord& d = back.value();
    EXPECT_EQ(d.lsn, rec.lsn);
    EXPECT_EQ(d.epoch, rec.epoch);
    EXPECT_DOUBLE_EQ(d.time, rec.time);
    EXPECT_EQ(d.kind, rec.kind);
    EXPECT_EQ(d.once, rec.once);
    EXPECT_EQ(d.seq, rec.seq);
    EXPECT_EQ(d.txn, rec.txn);
    EXPECT_EQ(d.priority, rec.priority);
    EXPECT_EQ(d.object, rec.object);
    EXPECT_EQ(d.member, rec.member);
    EXPECT_EQ(d.op.cls, rec.op.cls);
    EXPECT_EQ(d.op.operand, rec.op.operand);
    EXPECT_DOUBLE_EQ(d.duration, rec.duration);
    EXPECT_EQ(d.table, rec.table);
    EXPECT_EQ(d.key, rec.key);
    EXPECT_EQ(d.member_columns, rec.member_columns);
    EXPECT_EQ(d.dep_pairs, rec.dep_pairs);
    EXPECT_EQ(d.bootstrap, rec.bootstrap);
  }
}

TEST(ReplicaRecordTest, DecodeRejectsTruncationAndTrailingGarbage) {
  const ReplicaRecord rec = FullRecord(ReplicaOpKind::kInvoke);
  std::string payload;
  rec.EncodeTo(&payload);
  for (size_t cut : {size_t{1}, payload.size() / 2, payload.size() - 1}) {
    EXPECT_FALSE(
        ReplicaRecord::DecodeFrom(std::string_view(payload).substr(0, cut))
            .ok())
        << "cut=" << cut;
  }
  EXPECT_FALSE(ReplicaRecord::DecodeFrom(payload + "x").ok());
}

// Overwrites the little-endian u64 at `at` (a count or length field).
void PutU64At(std::string* buf, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*buf)[at + i] = static_cast<char>(v >> (8 * i));
}

// A record that ends with empty member columns, dependency pairs and
// bootstrap: the last 24 bytes are those three u64 counts.
std::string PayloadWithEmptyTail() {
  ReplicaRecord rec = FullRecord(ReplicaOpKind::kCommit);
  rec.member_columns.clear();
  rec.dep_pairs.clear();
  rec.bootstrap.clear();
  std::string payload;
  rec.EncodeTo(&payload);
  return payload;
}

// A count no payload can hold is corruption, refused before any allocation
// is sized by it (count * width must not wrap to a small number).
TEST(ReplicaRecordTest, CorruptMemberColumnsCountIsCorruption) {
  std::string payload = PayloadWithEmptyTail();
  PutU64At(&payload, payload.size() - 24, uint64_t{1} << 61);
  EXPECT_EQ(ReplicaRecord::DecodeFrom(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(ReplicaRecordTest, CorruptDepPairsCountIsCorruption) {
  std::string payload = PayloadWithEmptyTail();
  PutU64At(&payload, payload.size() - 16, uint64_t{1} << 60);
  EXPECT_EQ(ReplicaRecord::DecodeFrom(payload).status().code(),
            StatusCode::kCorruption);
}

// Every encoder writes in-range enum bytes and 0/1 flags, so any other
// byte there is corruption, caught at decode rather than at dispatch.
TEST(ReplicaRecordTest, NonCanonicalKindClassAndFlagBytesAreCorruption) {
  ReplicaRecord rec = FullRecord(ReplicaOpKind::kInvoke);
  rec.object.clear();
  std::string payload;
  rec.EncodeTo(&payload);
  // lsn, epoch and time, then kind and once; after seq, txn, priority, the
  // empty object and member come the op class and its inverse flag.
  const size_t kind_at = 24;
  const size_t cls_at = kind_at + 2 + 3 * 8 + 8 + 8;
  ASSERT_EQ(payload[kind_at], static_cast<char>(ReplicaOpKind::kInvoke));
  ASSERT_EQ(payload[kind_at + 1], 1);
  ASSERT_EQ(payload[cls_at], static_cast<char>(rec.op.cls));
  ASSERT_EQ(payload[cls_at + 1], 1);  // Sub is the inverse of Add.
  const std::vector<std::pair<const char*, std::pair<size_t, char>>> defects =
      {
          {"kind 0", {kind_at, 0}},
          {"kind 15", {kind_at, 15}},
          {"once 2", {kind_at + 1, 2}},
          {"op class 6", {cls_at, 6}},
          {"inverse 2", {cls_at + 1, 2}},
      };
  for (const auto& [defect, at_byte] : defects) {
    std::string bad = payload;
    bad[at_byte.first] = at_byte.second;
    EXPECT_EQ(ReplicaRecord::DecodeFrom(bad).status().code(),
              StatusCode::kCorruption)
        << defect;
  }
}

TEST(ReplicaRecordTest, FramedScanDropsTornTailAndCatchesCorruption) {
  std::string log;
  for (int i = 0; i < 3; ++i) {
    ReplicaRecord rec = FullRecord(ReplicaOpKind::kCommit);
    rec.lsn = static_cast<uint64_t>(i) + 1;
    std::string payload;
    rec.EncodeTo(&payload);
    storage::FramePayload(payload, &log);
  }
  const size_t full = log.size();

  // Torn tail (crash mid-append): the clean prefix scans, the tail drops.
  storage::FrameScanResult torn =
      storage::ScanFrames(std::string_view(log).substr(0, full - 5));
  ASSERT_TRUE(torn.status.ok()) << torn.status.ToString();
  EXPECT_EQ(torn.payloads.size(), 2u);

  // A flipped byte mid-log is corruption, not a clean break.
  std::string bad = log;
  bad[full / 2] = static_cast<char>(bad[full / 2] ^ 0x40);
  EXPECT_EQ(storage::ScanFrames(bad).status.code(), StatusCode::kCorruption);
}

TEST(ReplicaLogTest, AppendEnforcesDenseLsnsAndTruncateReports) {
  storage::MemoryWalStorage image;
  ReplicaLog log(&image);
  EXPECT_EQ(log.next_lsn(), 1u);
  std::vector<std::string> frames;
  for (uint64_t i = 1; i <= 5; ++i) {
    ReplicaRecord rec = FullRecord(ReplicaOpKind::kInvoke);
    rec.lsn = i;
    frames.push_back(Framed(rec));
    ASSERT_TRUE(image.Append(frames.back()).ok());
    ASSERT_TRUE(log.Append(i).ok());
  }
  // A gap, or an LSN with no new frame behind it, is refused.
  EXPECT_FALSE(log.Append(9).ok());
  EXPECT_FALSE(log.Append(6).ok());
  for (uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(log.Frame(i), frames[i - 1]) << "lsn " << i;
    EXPECT_EQ(log.At(i).lsn, i);
  }
  EXPECT_EQ(log.TruncateTo(3), 2u);
  EXPECT_EQ(log.last_lsn(), 3u);
  EXPECT_EQ(log.TruncateTo(3), 0u);
  // The cut index only fits an image that ends with lsn 3's frame.
  EXPECT_FALSE(log.Repoint(&image).ok());
  storage::MemoryWalStorage prefix;
  ASSERT_TRUE(prefix.Append(frames[0] + frames[1] + frames[2]).ok());
  ASSERT_TRUE(log.Repoint(&prefix).ok());
  EXPECT_EQ(log.Frame(3), frames[2]);
  // Appends index the new image.
  ASSERT_TRUE(prefix.Append(frames[3]).ok());
  ASSERT_TRUE(log.Append(4).ok());
  EXPECT_EQ(log.Frame(4), frames[3]);
  EXPECT_EQ(log.At(4).lsn, 4u);
}

// --- node-level replay edge cases ------------------------------------------

class ReplicaNodeLogTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(1); }

  void Build(size_t num_backups) {
    clock_.Set(0.0);
    ReplicaOptions opts;
    opts.num_backups = num_backups;
    group_ = std::make_unique<ReplicatedGtm>(&clock_, gtm::GtmOptions{}, opts,
                                             &ship_rng_);
    Schema schema = Schema::Create(
                        {
                            ColumnDef{"id", ValueType::kInt64, false},
                            ColumnDef{"qty", ValueType::kInt64, false},
                        },
                        0)
                        .value();
    ASSERT_TRUE(group_->CreateTable("obj", std::move(schema)).ok());
    ASSERT_TRUE(
        group_->InsertRow("obj", Row({Value::Int(0), Value::Int(100)})).ok());
    ASSERT_TRUE(group_->RegisterObject("X", "obj", Value::Int(0), {1}).ok());
  }

  void CommitSubtract() {
    const TxnId t = group_->Begin();
    ASSERT_NE(t, kInvalidTxnId);
    ASSERT_TRUE(
        group_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
    ASSERT_TRUE(group_->RequestCommit(t).ok());
  }

  Value NodeQty(size_t i) {
    return group_->node(i)
        ->db()
        ->GetTable("obj")
        .value()
        ->GetColumnByKey(Value::Int(0), 1)
        .value();
  }

  std::string Image(size_t i) {
    return group_->node(i)->log_storage()->ReadAll().value();
  }

  ReplicaNode* backup() { return group_->node(1); }

  ManualClock clock_;
  Rng ship_rng_{0xfeedULL};
  std::unique_ptr<ReplicatedGtm> group_;
};

TEST_F(ReplicaNodeLogTest, DuplicateShippedRecordsApplyOnce) {
  CommitSubtract();
  const uint64_t applied = backup()->last_applied();
  ASSERT_GT(applied, 0u);
  // Redeliver the whole log: every frame is an absorbed duplicate.
  for (uint64_t lsn = 1; lsn <= group_->log().last_lsn(); ++lsn) {
    EXPECT_TRUE(backup()->Apply(group_->log().Frame(lsn)).ok());
  }
  EXPECT_EQ(backup()->last_applied(), applied);
  EXPECT_EQ(backup()->duplicates_applied(),
            static_cast<int64_t>(group_->log().last_lsn()));
  EXPECT_EQ(NodeQty(1), Value::Int(99));
  // A gap (skipping ahead) is refused, not silently applied.
  ReplicaRecord future = group_->log().At(1);
  future.lsn = backup()->last_applied() + 5;
  EXPECT_EQ(backup()->Apply(Framed(future)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ReplicaNodeLogTest, CorruptShippedFramesAreRefused) {
  CommitSubtract();
  const uint64_t applied = backup()->last_applied();
  const std::string image = Image(1);
  // The next record in order, intact apart from each defect below.
  ReplicaRecord next;
  next.lsn = applied + 1;
  next.epoch = group_->epoch();
  next.time = clock_.Now();
  next.kind = ReplicaOpKind::kAbortExpiredWaits;
  next.duration = 1e9;
  std::string payload;
  next.EncodeTo(&payload);
  const std::string good = Framed(payload);
  // A validly framed record whose member column count no payload can hold
  // (its last 24 bytes are the counts of its three empty lists).
  std::string huge_count = payload;
  PutU64At(&huge_count, huge_count.size() - 24, uint64_t{1} << 61);
  auto flip = [&good](size_t at) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    return bad;
  };
  const std::vector<std::pair<const char*, std::string>> defects = {
      {"torn header", good.substr(0, 5)},
      {"torn payload", good.substr(0, good.size() - 3)},
      {"flipped payload byte", flip(8 + payload.size() / 2)},
      {"flipped crc byte", flip(5)},
      {"trailing bytes after the frame", good + "x"},
      {"trailing bytes after the record", Framed(payload + "x")},
      {"member column count of 2^61", Framed(huge_count)},
  };
  for (const auto& [defect, frame] : defects) {
    EXPECT_EQ(backup()->Apply(frame).code(), StatusCode::kCorruption)
        << defect;
    EXPECT_EQ(backup()->last_applied(), applied) << defect;
    EXPECT_EQ(Image(1), image) << defect;
  }
  // The intact frame applies, and its bytes land in the log unchanged.
  ASSERT_TRUE(backup()->Apply(good).ok());
  EXPECT_EQ(backup()->last_applied(), applied + 1);
  EXPECT_EQ(Image(1), image + good);
}

TEST_F(ReplicaNodeLogTest, ShipAllRefusesCorruptFrame) {
  CommitSubtract();
  CommitSubtract();
  // The backup loses its final frame, so the next ShipAll re-sends it.
  backup()->log_storage()->CorruptTail(3);
  ASSERT_TRUE(backup()->Restart().ok());
  const uint64_t applied = backup()->last_applied();
  ASSERT_EQ(applied + 1, group_->log().last_lsn());
  const std::string image = Image(1);
  // A flipped byte in the primary's copy of that frame.
  storage::MemoryWalStorage* primary_log = group_->node(0)->log_storage();
  std::string bytes = Image(0);
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x01);
  ASSERT_TRUE(primary_log->Reset(bytes).ok());
  const Status shipped = group_->shipper()->ShipAll();
  EXPECT_EQ(shipped.code(), StatusCode::kInternal);
  EXPECT_NE(shipped.message().find("rejected record " +
                                   std::to_string(applied + 1)),
            std::string::npos)
      << shipped.ToString();
  EXPECT_EQ(backup()->last_applied(), applied);
  EXPECT_EQ(Image(1), image);
}

TEST_F(ReplicaNodeLogTest, TornFinalRecordDropsAndReShips) {
  CommitSubtract();
  CommitSubtract();
  const uint64_t durable = backup()->last_applied();
  // Crash mid-ship: the backup's durable log loses the tail of its final
  // framed record.
  backup()->log_storage()->CorruptTail(3);
  Result<uint64_t> replayed = backup()->Restart();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value(), durable - 1);
  // The shipper's resync handshake adopts the backup's durable LSN and
  // re-ships the lost suffix.
  ASSERT_TRUE(group_->shipper()->ShipAll().ok());
  EXPECT_EQ(backup()->last_applied(), group_->log().last_lsn());
  EXPECT_EQ(NodeQty(1), Value::Int(98));
  EXPECT_EQ(NodeQty(1), NodeQty(0));
}

TEST_F(ReplicaNodeLogTest, BackupRestartResyncsFromLastDurableLsn) {
  CommitSubtract();
  // Clean restart: the full durable log replays.
  Result<uint64_t> replayed = backup()->Restart();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value(), group_->log().last_lsn());
  EXPECT_EQ(NodeQty(1), Value::Int(99));
  // New traffic after the restart ships incrementally — replay preserved
  // the reply caches and TxnId allocator, so nothing diverges.
  CommitSubtract();
  CommitSubtract();
  EXPECT_EQ(backup()->last_applied(), group_->log().last_lsn());
  EXPECT_EQ(NodeQty(1), Value::Int(97));
  EXPECT_EQ(NodeQty(1), NodeQty(0));
  EXPECT_TRUE(backup()->gtm()->CheckInvariants().ok());
}

TEST_F(ReplicaNodeLogTest, ReplayedTimestampsMatchPrimary) {
  // A sleeper whose A_t_sleep the replay clock must reproduce exactly.
  clock_.Set(5.0);
  const TxnId t = group_->Begin();
  ASSERT_TRUE(group_->Invoke(t, "X", 0, Operation::Sub(Value::Int(1))).ok());
  clock_.Set(7.5);
  ASSERT_TRUE(group_->Sleep(t).ok());
  ASSERT_TRUE(backup()->Restart().ok());
  const gtm::ManagedTxn* primary_txn = group_->primary_gtm()->GetTxn(t);
  const gtm::ManagedTxn* backup_txn = backup()->gtm()->GetTxn(t);
  ASSERT_NE(primary_txn, nullptr);
  ASSERT_NE(backup_txn, nullptr);
  EXPECT_DOUBLE_EQ(backup_txn->sleep_since(), primary_txn->sleep_since());
  EXPECT_EQ(backup()->gtm()->StateOf(t).value(), gtm::TxnState::kSleeping);
}

// Every node holds the same bytes: the primary frames each record once,
// after dispatch (so a Begin frame carries the allotted id), and backups
// append the shipped frames verbatim. Covers every command kind the
// session-facing surface logs, and the images after a promotion.
TEST_F(ReplicaNodeLogTest, NodeLogImagesAreByteIdentical) {
  Build(2);
  const TxnId a = group_->Begin();
  ASSERT_NE(a, kInvalidTxnId);
  ASSERT_TRUE(group_->Invoke(a, "X", 0, Operation::Sub(Value::Int(1))).ok());
  ASSERT_TRUE(group_->ReadLocal(a, "X", 0).ok());
  clock_.Set(2.0);
  ASSERT_TRUE(group_->Sleep(a).ok());
  clock_.Set(3.0);
  ASSERT_TRUE(group_->Awake(a).ok());
  ASSERT_TRUE(group_->RequestCommit(a).ok());
  const TxnId b = group_->Begin();
  ASSERT_TRUE(
      group_->InvokeOnce(b, 1, "X", 0, Operation::Sub(Value::Int(2))).ok());
  ASSERT_TRUE(group_->Prepare(b).ok());
  ASSERT_TRUE(group_->CommitPrepared(b).ok());
  const TxnId c = group_->Begin();
  (void)group_->AbortExpiredWaits(1.0);
  ASSERT_TRUE(group_->RequestAbort(c).ok());
  ASSERT_FALSE(Image(0).empty());
  EXPECT_EQ(Image(0), Image(1));
  EXPECT_EQ(Image(0), Image(2));

  group_->KillPrimary();
  Result<PromotionReport> promoted = group_->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  const size_t winner = group_->primary_index();
  const size_t survivor = winner == 1 ? 2 : 1;
  EXPECT_EQ(Image(winner), Image(0));
  clock_.Set(4.0);
  CommitSubtract();
  const TxnId d = group_->Begin();
  ASSERT_TRUE(group_->Invoke(d, "X", 0, Operation::Sub(Value::Int(1))).ok());
  EXPECT_EQ(Image(winner), Image(survivor));
  EXPECT_GT(Image(winner).size(), Image(0).size());
}

// After a promotion the group log indexes the winner's image: every LSN
// decodes from it, and a restarted surviving backup replays the same
// bytes into the winner's state.
TEST_F(ReplicaNodeLogTest, PromotionRepointsIndexAtWinnerImage) {
  Build(2);
  CommitSubtract();
  group_->KillPrimary();
  ASSERT_TRUE(group_->Promote().ok());
  const size_t winner = group_->primary_index();
  const size_t survivor = winner == 1 ? 2 : 1;
  CommitSubtract();
  std::string frames;
  for (uint64_t lsn = 1; lsn <= group_->log().last_lsn(); ++lsn) {
    EXPECT_EQ(group_->log().At(lsn).lsn, lsn);
    frames.append(group_->log().Frame(lsn));
  }
  EXPECT_EQ(frames, Image(winner));
  Result<uint64_t> replayed = group_->node(survivor)->Restart();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value(), group_->log().last_lsn());
  EXPECT_EQ(Image(survivor), Image(winner));
  EXPECT_EQ(NodeQty(survivor), Value::Int(98));
  EXPECT_EQ(NodeQty(survivor), NodeQty(winner));
  // The restarted backup keeps up with new traffic.
  CommitSubtract();
  EXPECT_EQ(group_->node(survivor)->last_applied(), group_->log().last_lsn());
  EXPECT_EQ(NodeQty(survivor), Value::Int(97));
}

}  // namespace
}  // namespace preserial::replica
