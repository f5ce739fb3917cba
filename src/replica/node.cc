#include "replica/node.h"

#include <utility>

#include "common/strings.h"
#include "semantics/compatibility.h"

namespace preserial::replica {

ReplicaNode::ReplicaNode(std::string name, gtm::GtmOptions options)
    : name_(std::move(name)), options_(options) {
  ResetStateMachines();
}

void ReplicaNode::ResetStateMachines() {
  gtm_.reset();
  db_ = std::make_unique<storage::Database>();
  gtm_ = std::make_unique<gtm::Gtm>(db_.get(), &clock_, options_);
  last_applied_ = 0;
  epoch_ = 0;
  last_reply_ = Status::Ok();
  last_begin_ = kInvalidTxnId;
  last_value_ = storage::Value::Null();
  last_txns_.clear();
}

Result<bool> ReplicaNode::Admit(const ReplicaRecord& rec) {
  if (rec.epoch < epoch_) {
    ++fenced_rejections_;
    return Status::FailedPrecondition(StrFormat(
        "%s: fenced: record epoch %llu < node epoch %llu", name_.c_str(),
        static_cast<unsigned long long>(rec.epoch),
        static_cast<unsigned long long>(epoch_)));
  }
  epoch_ = rec.epoch;
  if (rec.lsn <= last_applied_) {
    // Redelivered (ack lost, or an injected duplicate): already applied.
    ++duplicates_applied_;
    return false;
  }
  if (rec.lsn != last_applied_ + 1) {
    return Status::FailedPrecondition(StrFormat(
        "%s: log gap: applied %llu, got %llu", name_.c_str(),
        static_cast<unsigned long long>(last_applied_),
        static_cast<unsigned long long>(rec.lsn)));
  }
  return true;
}

void ReplicaNode::Execute(const ReplicaRecord& rec) {
  // Dispatch under the decision's own timestamp: every replica derives the
  // same A_t_sleep / X_tc / last_activity values.
  clock_.Set(rec.time);
  last_reply_ = Dispatch(rec);
  last_applied_ = rec.lsn;
  // Backups have no sessions to notify; grant events are re-synthesized at
  // promotion instead.
  if (role_ == ReplicaRole::kBackup) (void)gtm_->TakeEvents();
}

Status ReplicaNode::Lead(ReplicaRecord* rec) {
  if (!alive_) return Status::Unavailable(name_ + ": node is down");
  PRESERIAL_ASSIGN_OR_RETURN(bool fresh, Admit(*rec));
  if (!fresh) {
    return Status::Internal(StrFormat(
        "%s: lead lsn %llu already applied", name_.c_str(),
        static_cast<unsigned long long>(rec->lsn)));
  }
  Execute(*rec);
  // Begin decides the id during dispatch; the frame carries the decision.
  if (rec->kind == ReplicaOpKind::kBegin) rec->txn = last_begin_;
  payload_.clear();
  rec->EncodeTo(&payload_);
  frame_.clear();
  storage::FramePayload(payload_, &frame_);
  return log_storage_.Append(frame_);
}

Status ReplicaNode::Apply(std::string_view frame) {
  if (!alive_) return Status::Unavailable(name_ + ": node is down");
  PRESERIAL_ASSIGN_OR_RETURN(std::string_view payload, FramedPayload(frame));
  PRESERIAL_ASSIGN_OR_RETURN(ReplicaRecord rec,
                             ReplicaRecord::DecodeFrom(payload));
  PRESERIAL_ASSIGN_OR_RETURN(bool fresh, Admit(rec));
  if (!fresh) return Status::Ok();
  PRESERIAL_RETURN_IF_ERROR(log_storage_.Append(frame));
  Execute(rec);
  return Status::Ok();
}

Status ReplicaNode::Dispatch(const ReplicaRecord& rec) {
  switch (rec.kind) {
    case ReplicaOpKind::kBegin: {
      const TxnId t = gtm_->Begin(rec.priority);
      last_begin_ = t;
      if (rec.txn != kInvalidTxnId && t != rec.txn) {
        return Status::Internal(StrFormat(
            "%s: replica divergence: Begin gave %llu, log says %llu",
            name_.c_str(), static_cast<unsigned long long>(t),
            static_cast<unsigned long long>(rec.txn)));
      }
      return Status::Ok();
    }
    case ReplicaOpKind::kInvoke:
      return rec.once ? gtm_->InvokeOnce(rec.txn, rec.seq, rec.object,
                                         rec.member, rec.op)
                      : gtm_->Invoke(rec.txn, rec.object, rec.member, rec.op);
    case ReplicaOpKind::kReadLocal: {
      Result<storage::Value> r =
          gtm_->ReadLocal(rec.txn, rec.object, rec.member);
      if (!r.ok()) return r.status();
      last_value_ = std::move(r).value();
      return Status::Ok();
    }
    case ReplicaOpKind::kCommit:
      return rec.once ? gtm_->CommitOnce(rec.txn, rec.seq)
                      : gtm_->RequestCommit(rec.txn);
    case ReplicaOpKind::kAbort:
      return rec.once ? gtm_->AbortOnce(rec.txn, rec.seq)
                      : gtm_->RequestAbort(rec.txn);
    case ReplicaOpKind::kSleep:
      return rec.once ? gtm_->SleepOnce(rec.txn, rec.seq)
                      : gtm_->Sleep(rec.txn);
    case ReplicaOpKind::kAwake:
      return rec.once ? gtm_->AwakeOnce(rec.txn, rec.seq)
                      : gtm_->Awake(rec.txn);
    case ReplicaOpKind::kPrepare:
      return gtm_->Prepare(rec.txn);
    case ReplicaOpKind::kCommitPrepared:
      return gtm_->CommitPrepared(rec.txn);
    case ReplicaOpKind::kAbortPrepared:
      return gtm_->AbortPrepared(rec.txn);
    case ReplicaOpKind::kAbortExpiredWaits:
      last_txns_ = gtm_->AbortExpiredWaits(rec.duration);
      return Status::Ok();
    case ReplicaOpKind::kSleepIdle:
      last_txns_ = gtm_->SleepIdleTransactions(rec.duration);
      return Status::Ok();
    case ReplicaOpKind::kRegisterObject: {
      semantics::LogicalDependencies deps;
      for (const auto& [a, b] : rec.dep_pairs) {
        deps.AddDependency(static_cast<semantics::MemberId>(a),
                           static_cast<semantics::MemberId>(b));
      }
      std::vector<size_t> columns(rec.member_columns.begin(),
                                  rec.member_columns.end());
      return gtm_->RegisterObject(rec.object, rec.table, rec.key,
                                  std::move(columns), std::move(deps));
    }
    case ReplicaOpKind::kBootstrap: {
      PRESERIAL_ASSIGN_OR_RETURN(
          storage::WalRecord wr,
          storage::WalRecord::DecodeFrom(rec.bootstrap));
      switch (wr.type) {
        case storage::WalRecordType::kCreateTable: {
          Result<storage::Table*> t =
              db_->CreateTable(wr.table, std::move(wr.schema));
          return t.status();
        }
        case storage::WalRecordType::kAddConstraint:
          return db_->AddConstraint(wr.table, std::move(wr.constraint));
        case storage::WalRecordType::kInsert:
          return db_->InsertRow(wr.table, std::move(wr.row));
        default:
          return Status::Internal(
              StrFormat("%s: unsupported bootstrap record %s", name_.c_str(),
                        storage::WalRecordTypeName(wr.type)));
      }
    }
  }
  return Status::Internal(name_ + ": unknown replica op kind");
}

Result<uint64_t> ReplicaNode::Restart() {
  PRESERIAL_ASSIGN_OR_RETURN(std::string image, log_storage_.ReadAll());
  storage::FrameScanResult frames = storage::ScanFrames(image);
  PRESERIAL_RETURN_IF_ERROR(frames.status);
  if (frames.bytes_consumed < image.size()) {
    // Torn final record from a crash mid-append: rewrite the clean prefix so
    // future appends don't land after garbage.
    PRESERIAL_RETURN_IF_ERROR(log_storage_.Reset(
        std::string_view(image).substr(0, frames.bytes_consumed)));
  }
  ResetStateMachines();
  alive_ = true;
  for (const std::string& payload : frames.payloads) {
    PRESERIAL_ASSIGN_OR_RETURN(ReplicaRecord rec,
                               ReplicaRecord::DecodeFrom(payload));
    PRESERIAL_ASSIGN_OR_RETURN(bool fresh, Admit(rec));
    if (fresh) Execute(rec);
  }
  return last_applied_;
}

}  // namespace preserial::replica
