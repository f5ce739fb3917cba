#ifndef PRESERIAL_STORAGE_WAL_H_
#define PRESERIAL_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "storage/constraint.h"
#include "storage/row.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace preserial::storage {

// Record kinds in the write-ahead log. DDL is logged too, so recovery can
// rebuild the database from an empty state.
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kInsert = 4,
  kUpdate = 5,   // Full after-image of the row, keyed by (old) primary key.
  kDelete = 6,
  kCreateTable = 7,
  kAddConstraint = 8,
  kCheckpoint = 9,  // Marks the start of a snapshot rewrite.
  kDropTable = 10,
  // 11 and 12 are retired: they carried secondary-index DDL, and decoding
  // refuses them. Reusing them would let an old log be misread.
  // Cluster-coordinator records (2PC over shards). `txn_id` is the global
  // transaction id; they carry no table data — a recovering coordinator
  // replays them to re-drive in-doubt shards (presumed abort: a prepare
  // without a decision aborts).
  kClusterPrepare = 13,  // Branch list voted yes; decision pending.
  kClusterCommit = 14,   // Durable commit decision.
  kClusterAbort = 15,    // Durable abort decision.
  kClusterEnd = 16,      // All branches drove to the decision; forget txn.
};

const char* WalRecordTypeName(WalRecordType t);

// Decoded WAL record. Fields beyond `type` and `txn_id` are populated
// depending on the type.
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  TxnId txn_id = kInvalidTxnId;
  std::string table;        // All data and DDL records.
  Value key;                // kUpdate/kDelete
  Row row;                  // kInsert/kUpdate (after-image)
  Schema schema;            // kCreateTable
  CheckConstraint constraint;  // kAddConstraint
  // kClusterPrepare: participating (shard id, branch txn id) pairs.
  std::vector<std::pair<uint64_t, uint64_t>> branches;

  // Wire format: payload bytes (no framing).
  void EncodeTo(std::string* out) const;
  static Result<WalRecord> DecodeFrom(std::string_view payload);
};

// Byte sink/source for the log. Two implementations: a real file and an
// in-memory buffer (tests, simulation runs that don't need durability).
class WalStorage {
 public:
  virtual ~WalStorage() = default;
  virtual Status Append(std::string_view bytes) = 0;
  virtual Status Sync() = 0;
  virtual Result<std::string> ReadAll() const = 0;
  // Atomically replaces the whole log (checkpointing).
  virtual Status Reset(std::string_view bytes) = 0;
};

class MemoryWalStorage : public WalStorage {
 public:
  Status Append(std::string_view bytes) override;
  Status Sync() override { return Status::Ok(); }
  Result<std::string> ReadAll() const override { return buffer_; }
  Status Reset(std::string_view bytes) override;

  // The image in place, valid until the next Append or Reset.
  std::string_view bytes() const { return buffer_; }

  // Test hook: simulate a torn tail write of `n` bytes lost.
  void CorruptTail(size_t n);

 private:
  std::string buffer_;
};

class FileWalStorage : public WalStorage {
 public:
  explicit FileWalStorage(std::string path) : path_(std::move(path)) {}

  Status Append(std::string_view bytes) override;
  Status Sync() override;
  Result<std::string> ReadAll() const override;
  Status Reset(std::string_view bytes) override;

 private:
  std::string path_;
};

// Appends framed records: [u32 payload_len][u32 crc32(payload)][payload].
class WalWriter {
 public:
  explicit WalWriter(WalStorage* storage) : storage_(storage) {}

  Status Append(const WalRecord& record);
  Status Sync() { return storage_->Sync(); }

  // Convenience constructors for the common record shapes.
  Status LogBegin(TxnId txn);
  Status LogCommit(TxnId txn);
  Status LogAbort(TxnId txn);
  Status LogInsert(TxnId txn, std::string table, Row row);
  Status LogUpdate(TxnId txn, std::string table, Value key, Row after);
  Status LogDelete(TxnId txn, std::string table, Value key);
  Status LogCreateTable(TxnId txn, std::string table, const Schema& schema);
  Status LogAddConstraint(TxnId txn, std::string table,
                          const CheckConstraint& constraint);
  Status LogDropTable(TxnId txn, std::string table);

  // Cluster-coordinator records. Prepare and the decisions sync: they are
  // the durability points 2PC leans on.
  Status LogClusterPrepare(
      TxnId global, std::vector<std::pair<uint64_t, uint64_t>> branches);
  Status LogClusterCommit(TxnId global);
  Status LogClusterAbort(TxnId global);
  Status LogClusterEnd(TxnId global);

 private:
  WalStorage* storage_;
};

// Decodes a full log image into records. A torn or corrupt tail ends the
// scan cleanly (records before the damage are returned); corruption in the
// middle is reported as kCorruption.
struct WalScanResult {
  std::vector<WalRecord> records;
  // Ok when the whole log parsed, or when only a torn tail was dropped.
  Status status;
  size_t bytes_consumed = 0;
};

WalScanResult ScanWal(std::string_view log);

// Frame a single record (exposed for tests).
void FrameRecord(const WalRecord& record, std::string* out);

// The framing layer on its own: [u32 payload_len][u32 crc32(payload)][payload]
// around an opaque payload. The replica op log reuses this format for its own
// record type; FrameRecord/ScanWal are implemented on top of these.
void FramePayload(std::string_view payload, std::string* out);

struct FrameScanResult {
  std::vector<std::string> payloads;
  // Ok when the whole log parsed, or when only a torn tail was dropped.
  Status status;
  size_t bytes_consumed = 0;
};

// Same tail semantics as ScanWal: a torn final frame (short header or short
// payload) ends the scan cleanly; a CRC mismatch before the tail is
// kCorruption.
FrameScanResult ScanFrames(std::string_view log);

}  // namespace preserial::storage

#endif  // PRESERIAL_STORAGE_WAL_H_
