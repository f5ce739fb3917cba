#include "storage/wal.h"

#include <cstdio>
#include <fstream>

#include "common/coding.h"
#include "common/strings.h"

namespace preserial::storage {

namespace {

void EncodeSchema(const Schema& schema, std::string* out) {
  Writer w(out);
  w.PutU64(schema.num_columns());
  for (const ColumnDef& c : schema.columns()) {
    w.PutString(c.name);
    w.PutU8(static_cast<uint8_t>(c.type));
    w.PutBool(c.nullable);
  }
  w.PutU64(schema.primary_key());
}

Schema ReadSchema(Reader* in) {
  // A column takes at least its name's length, a type byte and a flag.
  const uint64_t n = in->Count(10);
  std::vector<ColumnDef> cols;
  cols.reserve(n);
  for (uint64_t i = 0; i < n && in->ok(); ++i) {
    ColumnDef c;
    c.name = in->GetString();
    c.type = in->GetEnum(ValueType::kNull, ValueType::kString);
    c.nullable = in->GetBool();
    cols.push_back(std::move(c));
  }
  const uint64_t pk = in->GetU64();
  if (!in->ok()) return Schema();
  Result<Schema> schema = Schema::Create(std::move(cols), pk);
  if (!schema.ok()) {
    in->Fail(schema.status().message());
    return Schema();
  }
  return std::move(schema).value();
}

void EncodeConstraint(const CheckConstraint& c, std::string* out) {
  Writer w(out);
  w.PutString(c.name());
  w.PutU64(c.column());
  w.PutU8(static_cast<uint8_t>(c.op()));
  c.constant().EncodeTo(out);
}

CheckConstraint ReadConstraint(Reader* in) {
  std::string name = in->GetString();
  const uint64_t column = in->GetU64();
  const CompareOp op = in->GetEnum(CompareOp::kEq, CompareOp::kGe);
  Value constant = Value::ReadFrom(in);
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
  Writer w(out);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(txn_id);
  switch (type) {
    case WalRecordType::kBegin:
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
    case WalRecordType::kCheckpoint:
    case WalRecordType::kClusterCommit:
    case WalRecordType::kClusterAbort:
    case WalRecordType::kClusterEnd:
      break;
    case WalRecordType::kInsert:
      w.PutString(table);
      row.EncodeTo(out);
      break;
    case WalRecordType::kUpdate:
      w.PutString(table);
      key.EncodeTo(out);
      row.EncodeTo(out);
      break;
    case WalRecordType::kDelete:
      w.PutString(table);
      key.EncodeTo(out);
      break;
    case WalRecordType::kCreateTable:
      w.PutString(table);
      EncodeSchema(schema, out);
      break;
    case WalRecordType::kAddConstraint:
      w.PutString(table);
      EncodeConstraint(constraint, out);
      break;
    case WalRecordType::kDropTable:
      w.PutString(table);
      break;
    case WalRecordType::kClusterPrepare:
      w.PutU64(branches.size());
      for (const auto& [shard, branch] : branches) {
        w.PutU64(shard);
        w.PutU64(branch);
      }
      break;
  }
}

Result<WalRecord> WalRecord::DecodeFrom(std::string_view payload) {
  Reader in(payload, "wal");
  WalRecord rec;
  rec.type = static_cast<WalRecordType>(in.GetU8());
  rec.txn_id = in.GetU64();
  switch (rec.type) {
    case WalRecordType::kBegin:
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
    case WalRecordType::kCheckpoint:
    case WalRecordType::kClusterCommit:
    case WalRecordType::kClusterAbort:
    case WalRecordType::kClusterEnd:
      break;
    case WalRecordType::kInsert:
      rec.table = in.GetString();
      rec.row = Row::ReadFrom(&in);
      break;
    case WalRecordType::kUpdate:
      rec.table = in.GetString();
      rec.key = Value::ReadFrom(&in);
      rec.row = Row::ReadFrom(&in);
      break;
    case WalRecordType::kDelete:
      rec.table = in.GetString();
      rec.key = Value::ReadFrom(&in);
      break;
    case WalRecordType::kCreateTable:
      rec.table = in.GetString();
      rec.schema = ReadSchema(&in);
      break;
    case WalRecordType::kAddConstraint:
      rec.table = in.GetString();
      rec.constraint = ReadConstraint(&in);
      break;
    case WalRecordType::kDropTable:
      rec.table = in.GetString();
      break;
    case WalRecordType::kClusterPrepare: {
      const uint64_t n = in.Count(16);
      rec.branches.reserve(n);
      for (uint64_t i = 0; i < n && in.ok(); ++i) {
        const uint64_t shard = in.GetU64();
        rec.branches.emplace_back(shard, in.GetU64());
      }
      break;
    }
    default:
      in.Fail(StrFormat("bad record type %d", static_cast<int>(rec.type)));
  }
  PRESERIAL_RETURN_IF_ERROR(in.Finish());
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
  Writer(out).PutFrame(payload);
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
  Reader in(log, "wal");
  std::string_view payload;
  // A frame cut short by the end of the log is a torn tail: drop it.
  while (in.remaining() > 0 && in.GetFrame(&payload)) {
    if (!in.ok()) break;
    out.payloads.emplace_back(payload);
    out.bytes_consumed = in.offset();
  }
  out.status = in.status();
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
