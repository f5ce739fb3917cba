#include "replica/log.h"

#include <bit>
#include <utility>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/strings.h"

namespace preserial::replica {

namespace {

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool GetU64(std::string_view buf, size_t* offset, uint64_t* v) {
  if (buf.size() - *offset < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<unsigned char>(buf[*offset + i]))
         << (8 * i);
  }
  *offset += 8;
  *v = r;
  return true;
}

void PutString(std::string* out, std::string_view s) {
  PutU64(out, s.size());
  out->append(s);
}

Result<std::string> GetString(std::string_view buf, size_t* offset) {
  uint64_t n = 0;
  if (!GetU64(buf, offset, &n) || buf.size() - *offset < n) {
    return Status::Corruption("replica: truncated string");
  }
  std::string s(buf.substr(*offset, n));
  *offset += n;
  return s;
}

uint32_t GetU32(std::string_view buf, size_t offset) {
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(buf[offset + i]))
         << (8 * i);
  }
  return r;
}

Result<uint8_t> GetU8(std::string_view buf, size_t* offset) {
  if (*offset >= buf.size()) {
    return Status::Corruption("replica: truncated byte");
  }
  return static_cast<uint8_t>(buf[(*offset)++]);
}

}  // namespace

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
  PutU64(out, lsn);
  PutU64(out, epoch);
  PutU64(out, std::bit_cast<uint64_t>(time));
  out->push_back(static_cast<char>(kind));
  out->push_back(once ? 1 : 0);
  PutU64(out, seq);
  PutU64(out, txn);
  PutU64(out, static_cast<uint64_t>(static_cast<int64_t>(priority)));
  PutString(out, object);
  PutU64(out, member);
  out->push_back(static_cast<char>(op.cls));
  out->push_back(op.inverse ? 1 : 0);
  op.operand.EncodeTo(out);
  PutU64(out, std::bit_cast<uint64_t>(duration));
  PutString(out, table);
  key.EncodeTo(out);
  PutU64(out, member_columns.size());
  for (uint64_t c : member_columns) PutU64(out, c);
  PutU64(out, dep_pairs.size());
  for (const auto& [a, b] : dep_pairs) {
    PutU64(out, a);
    PutU64(out, b);
  }
  PutString(out, bootstrap);
}

Result<ReplicaRecord> ReplicaRecord::DecodeFrom(std::string_view payload) {
  ReplicaRecord rec;
  size_t offset = 0;
  uint64_t bits = 0;
  if (!GetU64(payload, &offset, &rec.lsn) ||
      !GetU64(payload, &offset, &rec.epoch) ||
      !GetU64(payload, &offset, &bits)) {
    return Status::Corruption("replica: truncated record header");
  }
  rec.time = std::bit_cast<TimePoint>(bits);
  PRESERIAL_ASSIGN_OR_RETURN(uint8_t kind, GetU8(payload, &offset));
  rec.kind = static_cast<ReplicaOpKind>(kind);
  PRESERIAL_ASSIGN_OR_RETURN(uint8_t once, GetU8(payload, &offset));
  rec.once = once != 0;
  uint64_t priority = 0;
  if (!GetU64(payload, &offset, &rec.seq) ||
      !GetU64(payload, &offset, &rec.txn) ||
      !GetU64(payload, &offset, &priority)) {
    return Status::Corruption("replica: truncated record ids");
  }
  rec.priority = static_cast<int>(static_cast<int64_t>(priority));
  PRESERIAL_ASSIGN_OR_RETURN(rec.object, GetString(payload, &offset));
  uint64_t member = 0;
  if (!GetU64(payload, &offset, &member)) {
    return Status::Corruption("replica: truncated member");
  }
  rec.member = static_cast<semantics::MemberId>(member);
  PRESERIAL_ASSIGN_OR_RETURN(uint8_t cls, GetU8(payload, &offset));
  rec.op.cls = static_cast<semantics::OpClass>(cls);
  PRESERIAL_ASSIGN_OR_RETURN(uint8_t inverse, GetU8(payload, &offset));
  rec.op.inverse = inverse != 0;
  PRESERIAL_ASSIGN_OR_RETURN(rec.op.operand,
                             storage::Value::DecodeFrom(payload, &offset));
  if (!GetU64(payload, &offset, &bits)) {
    return Status::Corruption("replica: truncated duration");
  }
  rec.duration = std::bit_cast<Duration>(bits);
  PRESERIAL_ASSIGN_OR_RETURN(rec.table, GetString(payload, &offset));
  PRESERIAL_ASSIGN_OR_RETURN(rec.key,
                             storage::Value::DecodeFrom(payload, &offset));
  uint64_t n = 0;
  if (!GetU64(payload, &offset, &n) || payload.size() - offset < n * 8) {
    return Status::Corruption("replica: truncated member columns");
  }
  rec.member_columns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t c = 0;
    GetU64(payload, &offset, &c);
    rec.member_columns.push_back(c);
  }
  if (!GetU64(payload, &offset, &n) || payload.size() - offset < n * 16) {
    return Status::Corruption("replica: truncated dependency pairs");
  }
  rec.dep_pairs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t a = 0;
    uint64_t b = 0;
    GetU64(payload, &offset, &a);
    GetU64(payload, &offset, &b);
    rec.dep_pairs.emplace_back(a, b);
  }
  PRESERIAL_ASSIGN_OR_RETURN(rec.bootstrap, GetString(payload, &offset));
  if (offset != payload.size()) {
    return Status::Corruption(
        StrFormat("replica: %zu trailing bytes after record",
                  payload.size() - offset));
  }
  return rec;
}

Result<std::string_view> FramedPayload(std::string_view frame) {
  if (frame.size() < 8) {
    return Status::Corruption("replica: torn frame header");
  }
  const uint32_t len = GetU32(frame, 0);
  if (frame.size() - 8 != len) {
    return Status::Corruption(
        StrFormat("replica: frame holds %zu payload bytes, header says %u",
                  frame.size() - 8, len));
  }
  const std::string_view payload = frame.substr(8);
  if (Crc32(payload) != GetU32(frame, 4)) {
    return Status::Corruption("replica: frame crc mismatch");
  }
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
