#include "storage/wal.h"

#include <cstdio>
#include <fstream>

#include "common/crc32.h"
#include "common/strings.h"

namespace preserial::storage {

namespace {

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(std::string_view buf, size_t offset) {
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(buf[offset + i]))
         << (8 * i);
  }
  return r;
}

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
    return Status::Corruption("wal: truncated string");
  }
  std::string s(buf.substr(*offset, n));
  *offset += n;
  return s;
}

void EncodeSchema(const Schema& schema, std::string* out) {
  PutU64(out, schema.num_columns());
  for (const ColumnDef& c : schema.columns()) {
    PutString(out, c.name);
    out->push_back(static_cast<char>(c.type));
    out->push_back(c.nullable ? 1 : 0);
  }
  PutU64(out, schema.primary_key());
}

Result<Schema> DecodeSchema(std::string_view buf, size_t* offset) {
  uint64_t n = 0;
  if (!GetU64(buf, offset, &n)) {
    return Status::Corruption("wal: truncated schema arity");
  }
  std::vector<ColumnDef> cols;
  cols.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PRESERIAL_ASSIGN_OR_RETURN(std::string name, GetString(buf, offset));
    if (buf.size() - *offset < 2) {
      return Status::Corruption("wal: truncated column def");
    }
    ColumnDef c;
    c.name = std::move(name);
    c.type = static_cast<ValueType>(buf[*offset]);
    c.nullable = buf[*offset + 1] != 0;
    *offset += 2;
    cols.push_back(std::move(c));
  }
  uint64_t pk = 0;
  if (!GetU64(buf, offset, &pk)) {
    return Status::Corruption("wal: truncated schema pk");
  }
  return Schema::Create(std::move(cols), pk);
}

void EncodeConstraint(const CheckConstraint& c, std::string* out) {
  PutString(out, c.name());
  PutU64(out, c.column());
  out->push_back(static_cast<char>(c.op()));
  c.constant().EncodeTo(out);
}

Result<CheckConstraint> DecodeConstraint(std::string_view buf,
                                         size_t* offset) {
  PRESERIAL_ASSIGN_OR_RETURN(std::string name, GetString(buf, offset));
  uint64_t column = 0;
  if (!GetU64(buf, offset, &column) || *offset >= buf.size()) {
    return Status::Corruption("wal: truncated constraint");
  }
  const auto op = static_cast<CompareOp>(buf[(*offset)++]);
  PRESERIAL_ASSIGN_OR_RETURN(Value constant, Value::DecodeFrom(buf, offset));
  return CheckConstraint(std::move(name), column, op, std::move(constant));
}

}  // namespace

const char* WalRecordTypeName(WalRecordType t) {
  switch (t) {
    case WalRecordType::kBegin:
      return "BEGIN";
    case WalRecordType::kCommit:
      return "COMMIT";
    case WalRecordType::kAbort:
      return "ABORT";
    case WalRecordType::kInsert:
      return "INSERT";
    case WalRecordType::kUpdate:
      return "UPDATE";
    case WalRecordType::kDelete:
      return "DELETE";
    case WalRecordType::kCreateTable:
      return "CREATE_TABLE";
    case WalRecordType::kAddConstraint:
      return "ADD_CONSTRAINT";
    case WalRecordType::kCheckpoint:
      return "CHECKPOINT";
    case WalRecordType::kDropTable:
      return "DROP_TABLE";
    case WalRecordType::kClusterPrepare:
      return "CLUSTER_PREPARE";
    case WalRecordType::kClusterCommit:
      return "CLUSTER_COMMIT";
    case WalRecordType::kClusterAbort:
      return "CLUSTER_ABORT";
    case WalRecordType::kClusterEnd:
      return "CLUSTER_END";
  }
  return "?";
}

void WalRecord::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type));
  PutU64(out, txn_id);
  switch (type) {
    case WalRecordType::kBegin:
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
    case WalRecordType::kCheckpoint:
      break;
    case WalRecordType::kInsert:
      PutString(out, table);
      row.EncodeTo(out);
      break;
    case WalRecordType::kUpdate:
      PutString(out, table);
      key.EncodeTo(out);
      row.EncodeTo(out);
      break;
    case WalRecordType::kDelete:
      PutString(out, table);
      key.EncodeTo(out);
      break;
    case WalRecordType::kCreateTable:
      PutString(out, table);
      EncodeSchema(schema, out);
      break;
    case WalRecordType::kAddConstraint:
      PutString(out, table);
      EncodeConstraint(constraint, out);
      break;
    case WalRecordType::kDropTable:
      PutString(out, table);
      break;
    case WalRecordType::kClusterPrepare:
      PutU64(out, branches.size());
      for (const auto& [shard, branch] : branches) {
        PutU64(out, shard);
        PutU64(out, branch);
      }
      break;
    case WalRecordType::kClusterCommit:
    case WalRecordType::kClusterAbort:
    case WalRecordType::kClusterEnd:
      break;
  }
}

Result<WalRecord> WalRecord::DecodeFrom(std::string_view payload) {
  if (payload.empty()) return Status::Corruption("wal: empty payload");
  size_t offset = 0;
  WalRecord rec;
  rec.type = static_cast<WalRecordType>(payload[offset++]);
  uint64_t txn = 0;
  if (!GetU64(payload, &offset, &txn)) {
    return Status::Corruption("wal: truncated txn id");
  }
  rec.txn_id = txn;
  switch (rec.type) {
    case WalRecordType::kBegin:
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
    case WalRecordType::kCheckpoint:
      break;
    case WalRecordType::kInsert: {
      PRESERIAL_ASSIGN_OR_RETURN(rec.table, GetString(payload, &offset));
      PRESERIAL_ASSIGN_OR_RETURN(rec.row, Row::DecodeFrom(payload, &offset));
      break;
    }
    case WalRecordType::kUpdate: {
      PRESERIAL_ASSIGN_OR_RETURN(rec.table, GetString(payload, &offset));
      PRESERIAL_ASSIGN_OR_RETURN(rec.key, Value::DecodeFrom(payload, &offset));
      PRESERIAL_ASSIGN_OR_RETURN(rec.row, Row::DecodeFrom(payload, &offset));
      break;
    }
    case WalRecordType::kDelete: {
      PRESERIAL_ASSIGN_OR_RETURN(rec.table, GetString(payload, &offset));
      PRESERIAL_ASSIGN_OR_RETURN(rec.key, Value::DecodeFrom(payload, &offset));
      break;
    }
    case WalRecordType::kCreateTable: {
      PRESERIAL_ASSIGN_OR_RETURN(rec.table, GetString(payload, &offset));
      PRESERIAL_ASSIGN_OR_RETURN(rec.schema, DecodeSchema(payload, &offset));
      break;
    }
    case WalRecordType::kAddConstraint: {
      PRESERIAL_ASSIGN_OR_RETURN(rec.table, GetString(payload, &offset));
      PRESERIAL_ASSIGN_OR_RETURN(rec.constraint,
                                 DecodeConstraint(payload, &offset));
      break;
    }
    case WalRecordType::kDropTable: {
      PRESERIAL_ASSIGN_OR_RETURN(rec.table, GetString(payload, &offset));
      break;
    }
    case WalRecordType::kClusterPrepare: {
      uint64_t n = 0;
      if (!GetU64(payload, &offset, &n)) {
        return Status::Corruption("wal: truncated cluster branch count");
      }
      rec.branches.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t shard = 0, branch = 0;
        if (!GetU64(payload, &offset, &shard) ||
            !GetU64(payload, &offset, &branch)) {
          return Status::Corruption("wal: truncated cluster branch");
        }
        rec.branches.emplace_back(shard, branch);
      }
      break;
    }
    case WalRecordType::kClusterCommit:
    case WalRecordType::kClusterAbort:
    case WalRecordType::kClusterEnd:
      break;
    default:
      return Status::Corruption(StrFormat("wal: bad record type %d",
                                          static_cast<int>(rec.type)));
  }
  if (offset != payload.size()) {
    return Status::Corruption("wal: trailing bytes in record payload");
  }
  return rec;
}

Status MemoryWalStorage::Append(std::string_view bytes) {
  buffer_.append(bytes);
  return Status::Ok();
}

Status MemoryWalStorage::Reset(std::string_view bytes) {
  buffer_.assign(bytes);
  return Status::Ok();
}

void MemoryWalStorage::CorruptTail(size_t n) {
  buffer_.resize(buffer_.size() > n ? buffer_.size() - n : 0);
}

Status FileWalStorage::Append(std::string_view bytes) {
  std::ofstream f(path_, std::ios::binary | std::ios::app);
  if (!f) return Status::Corruption("wal: cannot open " + path_);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) return Status::Corruption("wal: short append to " + path_);
  return Status::Ok();
}

Status FileWalStorage::Sync() {
  // Appends above already flush on stream close; an explicit fsync would go
  // here for a production deployment.
  return Status::Ok();
}

Result<std::string> FileWalStorage::ReadAll() const {
  std::ifstream f(path_, std::ios::binary);
  if (!f) return std::string();  // Missing log == empty log.
  std::string data((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  return data;
}

Status FileWalStorage::Reset(std::string_view bytes) {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::Corruption("wal: cannot open " + tmp);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!f) return Status::Corruption("wal: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::Corruption("wal: rename failed for " + path_);
  }
  return Status::Ok();
}

void FramePayload(std::string_view payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload));
  out->append(payload);
}

void FrameRecord(const WalRecord& record, std::string* out) {
  std::string payload;
  record.EncodeTo(&payload);
  FramePayload(payload, out);
}

Status WalWriter::Append(const WalRecord& record) {
  std::string framed;
  FrameRecord(record, &framed);
  return storage_->Append(framed);
}

Status WalWriter::LogBegin(TxnId txn) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.txn_id = txn;
  return Append(r);
}

Status WalWriter::LogCommit(TxnId txn) {
  WalRecord r;
  r.type = WalRecordType::kCommit;
  r.txn_id = txn;
  PRESERIAL_RETURN_IF_ERROR(Append(r));
  return Sync();
}

Status WalWriter::LogAbort(TxnId txn) {
  WalRecord r;
  r.type = WalRecordType::kAbort;
  r.txn_id = txn;
  return Append(r);
}

Status WalWriter::LogInsert(TxnId txn, std::string table, Row row) {
  WalRecord r;
  r.type = WalRecordType::kInsert;
  r.txn_id = txn;
  r.table = std::move(table);
  r.row = std::move(row);
  return Append(r);
}

Status WalWriter::LogUpdate(TxnId txn, std::string table, Value key,
                            Row after) {
  WalRecord r;
  r.type = WalRecordType::kUpdate;
  r.txn_id = txn;
  r.table = std::move(table);
  r.key = std::move(key);
  r.row = std::move(after);
  return Append(r);
}

Status WalWriter::LogDelete(TxnId txn, std::string table, Value key) {
  WalRecord r;
  r.type = WalRecordType::kDelete;
  r.txn_id = txn;
  r.table = std::move(table);
  r.key = std::move(key);
  return Append(r);
}

Status WalWriter::LogCreateTable(TxnId txn, std::string table,
                                 const Schema& schema) {
  WalRecord r;
  r.type = WalRecordType::kCreateTable;
  r.txn_id = txn;
  r.table = std::move(table);
  r.schema = schema;
  return Append(r);
}

Status WalWriter::LogAddConstraint(TxnId txn, std::string table,
                                   const CheckConstraint& constraint) {
  WalRecord r;
  r.type = WalRecordType::kAddConstraint;
  r.txn_id = txn;
  r.table = std::move(table);
  r.constraint = constraint;
  return Append(r);
}

Status WalWriter::LogDropTable(TxnId txn, std::string table) {
  WalRecord r;
  r.type = WalRecordType::kDropTable;
  r.txn_id = txn;
  r.table = std::move(table);
  return Append(r);
}

Status WalWriter::LogClusterPrepare(
    TxnId global, std::vector<std::pair<uint64_t, uint64_t>> branches) {
  WalRecord r;
  r.type = WalRecordType::kClusterPrepare;
  r.txn_id = global;
  r.branches = std::move(branches);
  PRESERIAL_RETURN_IF_ERROR(Append(r));
  return Sync();
}

Status WalWriter::LogClusterCommit(TxnId global) {
  WalRecord r;
  r.type = WalRecordType::kClusterCommit;
  r.txn_id = global;
  PRESERIAL_RETURN_IF_ERROR(Append(r));
  return Sync();
}

Status WalWriter::LogClusterAbort(TxnId global) {
  WalRecord r;
  r.type = WalRecordType::kClusterAbort;
  r.txn_id = global;
  PRESERIAL_RETURN_IF_ERROR(Append(r));
  return Sync();
}

Status WalWriter::LogClusterEnd(TxnId global) {
  WalRecord r;
  r.type = WalRecordType::kClusterEnd;
  r.txn_id = global;
  return Append(r);
}

FrameScanResult ScanFrames(std::string_view log) {
  FrameScanResult out;
  out.status = Status::Ok();
  size_t offset = 0;
  while (offset < log.size()) {
    if (log.size() - offset < 8) {
      // Torn frame header at the tail: drop it.
      break;
    }
    const uint32_t len = GetU32(log, offset);
    const uint32_t crc = GetU32(log, offset + 4);
    if (log.size() - offset - 8 < len) {
      // Torn payload at the tail: drop it.
      break;
    }
    const std::string_view payload = log.substr(offset + 8, len);
    if (Crc32(payload) != crc) {
      out.status = Status::Corruption(
          StrFormat("wal: bad crc at offset %zu", offset));
      return out;
    }
    out.payloads.emplace_back(payload);
    offset += 8 + len;
    out.bytes_consumed = offset;
  }
  return out;
}

WalScanResult ScanWal(std::string_view log) {
  FrameScanResult frames = ScanFrames(log);
  WalScanResult out;
  out.status = frames.status;
  out.bytes_consumed = frames.bytes_consumed;
  if (!out.status.ok()) return out;
  for (const std::string& payload : frames.payloads) {
    Result<WalRecord> rec = WalRecord::DecodeFrom(payload);
    if (!rec.ok()) {
      out.status = rec.status();
      return out;
    }
    out.records.push_back(std::move(rec).value());
  }
  return out;
}

}  // namespace preserial::storage
