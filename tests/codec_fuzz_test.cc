// Decoder fuzz gate: seeded mutations of valid log encodings — bit flips,
// truncations, inflated count and length fields, and splices of two
// encodings — fed to every decoder of the log byte format. Each input must
// either fail with a status or decode to a record that re-encodes to the
// bytes it was read from; no decoder may throw or read out of bounds (the
// asan and ubsan legs run this suite by the `codec` label).

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
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
using storage::Row;
using storage::Value;
using storage::WalRecord;
using storage::WalRecordType;

constexpr int kMutations = 100000;

std::vector<std::string> Seeds() {
  std::vector<std::string> seeds;
  auto add = [&seeds](const auto& encodable) {
    std::string bytes;
    encodable.EncodeTo(&bytes);
    seeds.push_back(bytes);
  };
  for (const Value& v :
       {Value::Null(), Value::Bool(true), Value::Int(-3), Value::Double(2.5),
        Value::String("abc")}) {
    add(v);
  }
  add(Row({Value::Int(1), Value::String("x"), Value::Bool(false)}));

  std::vector<WalRecord> wal(6);
  wal[0].type = WalRecordType::kBegin;
  wal[1].type = WalRecordType::kInsert;
  wal[1].table = "t";
  wal[1].row = Row({Value::Int(1), Value::Double(0.5)});
  wal[2].type = WalRecordType::kUpdate;
  wal[2].table = "t";
  wal[2].key = Value::Int(1);
  wal[2].row = Row({Value::Int(1), Value::Null()});
  wal[3].type = WalRecordType::kCreateTable;
  wal[3].table = "t";
  wal[3].schema = storage::Schema::Create(
                      {storage::ColumnDef{"id", storage::ValueType::kInt64,
                                          false},
                       storage::ColumnDef{"v", storage::ValueType::kString,
                                          true}},
                      0)
                      .value();
  wal[4].type = WalRecordType::kAddConstraint;
  wal[4].table = "t";
  wal[4].constraint = storage::CheckConstraint(
      "c", 1, storage::CompareOp::kLe, Value::String("z"));
  wal[5].type = WalRecordType::kClusterPrepare;
  wal[5].branches = {{0, 7}, {3, 9}};
  for (size_t i = 0; i < wal.size(); ++i) {
    wal[i].txn_id = i + 1;
    add(wal[i]);
  }

  ReplicaRecord invoke;
  invoke.lsn = 4;
  invoke.epoch = 1;
  invoke.time = 3.25;
  invoke.kind = ReplicaOpKind::kInvoke;
  invoke.once = true;
  invoke.txn = 2;
  invoke.priority = -5;
  invoke.object = "X";
  invoke.member = 1;
  invoke.op = semantics::Operation::Sub(Value::Int(2));
  add(invoke);
  ReplicaRecord reg = invoke;
  reg.kind = ReplicaOpKind::kRegisterObject;
  reg.table = "t";
  reg.key = Value::Int(0);
  reg.member_columns = {1, 2};
  reg.dep_pairs = {{0, 1}};
  add(reg);
  ReplicaRecord boot = invoke;
  boot.kind = ReplicaOpKind::kBootstrap;
  wal[3].EncodeTo(&boot.bootstrap);
  add(boot);

  // Framed logs for ScanFrames.
  std::string log;
  for (size_t i = 6; i < seeds.size(); ++i) {
    storage::FramePayload(seeds[i], &log);
  }
  seeds.push_back(log);
  return seeds;
}

// Overwrites `width` bytes at a random offset with a count or length no
// buffer can hold, or one just past the bytes that remain.
void Inflate(Rng* rng, std::string* buf) {
  const size_t width = rng->NextBool(0.5) ? 8 : 4;
  if (buf->size() < width) return;
  const size_t at = rng->NextBounded(buf->size() - width + 1);
  const uint64_t candidates[] = {
      ~uint64_t{0},        uint64_t{1} << 61,  uint64_t{1} << 60,
      uint64_t{1} << 40,   uint64_t{1} << 32,  0xffffffffULL,
      buf->size() - at,    buf->size() - at + 1,
  };
  const uint64_t v = candidates[rng->NextBounded(std::size(candidates))];
  for (size_t i = 0; i < width; ++i) {
    (*buf)[at + i] = static_cast<char>(v >> (8 * i));
  }
}

std::string Mutate(Rng* rng, const std::vector<std::string>& seeds) {
  std::string buf = seeds[rng->NextBounded(seeds.size())];
  switch (rng->NextBounded(4)) {
    case 0: {  // Bit flips.
      const uint64_t flips = 1 + rng->NextBounded(3);
      for (uint64_t i = 0; i < flips && !buf.empty(); ++i) {
        const size_t at = rng->NextBounded(buf.size());
        buf[at] = static_cast<char>(buf[at] ^ (1 << rng->NextBounded(8)));
      }
      break;
    }
    case 1:  // Truncation.
      buf.resize(rng->NextBounded(buf.size() + 1));
      break;
    case 2:
      Inflate(rng, &buf);
      break;
    case 3: {  // Splice: a prefix of this seed, a suffix of another.
      const std::string& other = seeds[rng->NextBounded(seeds.size())];
      buf = buf.substr(0, rng->NextBounded(buf.size() + 1)) +
            other.substr(rng->NextBounded(other.size() + 1));
      break;
    }
  }
  return buf;
}

// Checks one input against every decoder; returns how many accepted it
// (ScanFrames accepts a log it reads whole).
int CheckAllDecoders(std::string_view in) {
  int accepted = 0;
  {
    size_t offset = 0;
    Result<Value> v = Value::DecodeFrom(in, &offset);
    if (v.ok()) {
      ++accepted;
      std::string again;
      v.value().EncodeTo(&again);
      EXPECT_EQ(again, in.substr(0, offset));
    }
  }
  {
    size_t offset = 0;
    Result<Row> r = Row::DecodeFrom(in, &offset);
    if (r.ok()) {
      ++accepted;
      std::string again;
      r.value().EncodeTo(&again);
      EXPECT_EQ(again, in.substr(0, offset));
    }
  }
  if (Result<WalRecord> w = WalRecord::DecodeFrom(in); w.ok()) {
    ++accepted;
    std::string again;
    w.value().EncodeTo(&again);
    EXPECT_EQ(again, in);
  }
  if (Result<ReplicaRecord> r = ReplicaRecord::DecodeFrom(in); r.ok()) {
    ++accepted;
    std::string again;
    r.value().EncodeTo(&again);
    EXPECT_EQ(again, in);
  }
  storage::FrameScanResult scan = storage::ScanFrames(in);
  std::string reframed;
  for (const std::string& payload : scan.payloads) {
    storage::FramePayload(payload, &reframed);
  }
  EXPECT_EQ(reframed, in.substr(0, scan.bytes_consumed));
  if (!scan.status.ok()) {
    EXPECT_EQ(scan.status.code(), StatusCode::kCorruption);
  } else if (!scan.payloads.empty() && scan.bytes_consumed == in.size()) {
    ++accepted;
  }
  return accepted;
}

TEST(CodecFuzzTest, SeedsDecodeAndReencodeIdentically) {
  for (const std::string& seed : Seeds()) {
    EXPECT_GE(CheckAllDecoders(seed), 1);
  }
}

TEST(CodecFuzzTest, MutatedEncodingsFailCleanlyOrReencodeIdentically) {
  const std::vector<std::string> seeds = Seeds();
  Rng rng(0xc0dec);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string in = Mutate(&rng, seeds);
    accepted += CheckAllDecoders(in);
    if (::testing::Test::HasFailure()) {
      FAIL() << "mutation " << i << " of " << in.size() << " bytes";
    }
  }
  // Some mutations (a flipped string byte, a torn tail) stay decodable, so
  // both outcomes are exercised.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace preserial
