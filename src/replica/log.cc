#include "replica/log.h"

#include <utility>

#include "common/coding.h"
#include "common/logging.h"
#include "common/strings.h"

namespace preserial::replica {

const char* ReplicaOpKindName(ReplicaOpKind kind) {
  switch (kind) {
    case ReplicaOpKind::kBegin:
      return "BEGIN";
    case ReplicaOpKind::kInvoke:
      return "INVOKE";
    case ReplicaOpKind::kReadLocal:
      return "READ_LOCAL";
    case ReplicaOpKind::kCommit:
      return "COMMIT";
    case ReplicaOpKind::kAbort:
      return "ABORT";
    case ReplicaOpKind::kSleep:
      return "SLEEP";
    case ReplicaOpKind::kAwake:
      return "AWAKE";
    case ReplicaOpKind::kPrepare:
      return "PREPARE";
    case ReplicaOpKind::kCommitPrepared:
      return "COMMIT_PREPARED";
    case ReplicaOpKind::kAbortPrepared:
      return "ABORT_PREPARED";
    case ReplicaOpKind::kAbortExpiredWaits:
      return "ABORT_EXPIRED_WAITS";
    case ReplicaOpKind::kSleepIdle:
      return "SLEEP_IDLE";
    case ReplicaOpKind::kRegisterObject:
      return "REGISTER_OBJECT";
    case ReplicaOpKind::kBootstrap:
      return "BOOTSTRAP";
  }
  return "?";
}

void ReplicaRecord::EncodeTo(std::string* out) const {
  Writer w(out);
  w.PutU64(lsn);
  w.PutU64(epoch);
  w.PutF64(time);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutBool(once);
  w.PutU64(seq);
  w.PutU64(txn);
  w.PutU64(static_cast<uint64_t>(priority));  // Sign-extended.
  w.PutString(object);
  w.PutU64(member);
  w.PutU8(static_cast<uint8_t>(op.cls));
  w.PutBool(op.inverse);
  op.operand.EncodeTo(out);
  w.PutF64(duration);
  w.PutString(table);
  key.EncodeTo(out);
  w.PutU64(member_columns.size());
  for (uint64_t c : member_columns) w.PutU64(c);
  w.PutU64(dep_pairs.size());
  for (const auto& [a, b] : dep_pairs) {
    w.PutU64(a);
    w.PutU64(b);
  }
  w.PutString(bootstrap);
}

Result<ReplicaRecord> ReplicaRecord::DecodeFrom(std::string_view payload) {
  Reader in(payload, "replica");
  ReplicaRecord rec;
  rec.lsn = in.GetU64();
  rec.epoch = in.GetU64();
  rec.time = in.GetF64();
  rec.kind = in.GetEnum(ReplicaOpKind::kBegin, ReplicaOpKind::kBootstrap);
  rec.once = in.GetBool();
  rec.seq = in.GetU64();
  rec.txn = in.GetU64();
  const auto priority = static_cast<int64_t>(in.GetU64());
  rec.priority = static_cast<int>(priority);
  if (rec.priority != priority) in.Fail("priority out of int range");
  rec.object = in.GetString();
  rec.member = in.GetU64();
  rec.op.cls = in.GetEnum(semantics::OpClass::kRead,
                          semantics::OpClass::kUpdateMulDiv);
  rec.op.inverse = in.GetBool();
  rec.op.operand = storage::Value::ReadFrom(&in);
  rec.duration = in.GetF64();
  rec.table = in.GetString();
  rec.key = storage::Value::ReadFrom(&in);
  const uint64_t columns = in.Count(8);
  rec.member_columns.reserve(columns);
  for (uint64_t i = 0; i < columns; ++i) {
    rec.member_columns.push_back(in.GetU64());
  }
  const uint64_t pairs = in.Count(16);
  rec.dep_pairs.reserve(pairs);
  for (uint64_t i = 0; i < pairs; ++i) {
    const uint64_t a = in.GetU64();
    rec.dep_pairs.emplace_back(a, in.GetU64());
  }
  rec.bootstrap = in.GetString();
  PRESERIAL_RETURN_IF_ERROR(in.Finish());
  return rec;
}

Result<std::string_view> FramedPayload(std::string_view frame) {
  Reader in(frame, "replica");
  std::string_view payload;
  if (!in.GetFrame(&payload)) {
    return Status::Corruption("replica: torn frame");
  }
  PRESERIAL_RETURN_IF_ERROR(in.Finish());
  return payload;
}

Status ReplicaLog::Append(uint64_t lsn) {
  if (lsn != next_lsn()) {
    return Status::Internal(
        StrFormat("replica log: append lsn %llu, expected %llu",
                  static_cast<unsigned long long>(lsn),
                  static_cast<unsigned long long>(next_lsn())));
  }
  const uint64_t end = image_->bytes().size();
  if (end <= End()) {
    return Status::Internal("replica log: no new frame to index");
  }
  ends_.push_back(end);
  return Status::Ok();
}

std::string_view ReplicaLog::Frame(uint64_t lsn) const {
  const uint64_t begin = lsn == 1 ? 0 : ends_[lsn - 2];
  return image_->bytes().substr(begin, ends_[lsn - 1] - begin);
}

ReplicaRecord ReplicaLog::At(uint64_t lsn) const {
  Result<std::string_view> payload = FramedPayload(Frame(lsn));
  PRESERIAL_CHECK(payload.ok()) << payload.status().ToString();
  Result<ReplicaRecord> rec = ReplicaRecord::DecodeFrom(payload.value());
  PRESERIAL_CHECK(rec.ok()) << rec.status().ToString();
  return std::move(rec).value();
}

uint64_t ReplicaLog::TruncateTo(uint64_t new_last) {
  if (new_last >= ends_.size()) return 0;
  const uint64_t dropped = ends_.size() - new_last;
  ends_.resize(new_last);
  return dropped;
}

Status ReplicaLog::Repoint(const storage::MemoryWalStorage* image) {
  if (image->bytes().size() != End()) {
    return Status::Internal(StrFormat(
        "replica log: image of %zu bytes, index ends at %llu",
        image->bytes().size(), static_cast<unsigned long long>(End())));
  }
  image_ = image;
  return Status::Ok();
}

}  // namespace preserial::replica
