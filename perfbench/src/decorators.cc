#include "decorators.h"

namespace perfbench {

using preserial::Duration;
using preserial::Result;
using preserial::Status;
using preserial::StatusCode;
using preserial::TxnId;
using preserial::gtm::GtmEvent;
using preserial::gtm::ObjectId;
using preserial::gtm::TxnState;
using preserial::semantics::MemberId;
using preserial::semantics::Operation;
using preserial::storage::Value;

// --- TracedEndpoint ----------------------------------------------------------

TxnId TracedEndpoint::Begin(int priority) {
  ScopedSpan span(SpanKind::kBegin);
  const TxnId txn = inner_->Begin(priority);
  span.set_txn(txn);
  return txn;
}

Status TracedEndpoint::CountInvoke(Status s) {
  ++counts_.invokes;
  if (s.code() == StatusCode::kWaiting) ++counts_.invoke_waiting;
  return s;
}

Status TracedEndpoint::CountAwake(Status s) {
  ++counts_.awakes;
  if (s.code() == StatusCode::kAborted) ++counts_.awake_aborted;
  return s;
}

Status TracedEndpoint::Invoke(TxnId txn, const ObjectId& object,
                              MemberId member, const Operation& op) {
  ScopedSpan span(SpanKind::kInvoke, txn);
  return CountInvoke(inner_->Invoke(txn, object, member, op));
}

Result<Value> TracedEndpoint::ReadLocal(TxnId txn, const ObjectId& object,
                                        MemberId member) {
  ScopedSpan span(SpanKind::kRead, txn);
  return inner_->ReadLocal(txn, object, member);
}

Status TracedEndpoint::RequestCommit(TxnId txn) {
  ScopedSpan span(SpanKind::kCommit, txn);
  return inner_->RequestCommit(txn);
}

Status TracedEndpoint::RequestAbort(TxnId txn) {
  ScopedSpan span(SpanKind::kAbort, txn);
  return inner_->RequestAbort(txn);
}

Status TracedEndpoint::Sleep(TxnId txn) {
  ScopedSpan span(SpanKind::kSleep, txn);
  return inner_->Sleep(txn);
}

Status TracedEndpoint::Awake(TxnId txn) {
  ScopedSpan span(SpanKind::kAwake, txn);
  return CountAwake(inner_->Awake(txn));
}

Status TracedEndpoint::InvokeOnce(TxnId txn, uint64_t seq,
                                  const ObjectId& object, MemberId member,
                                  const Operation& op) {
  ScopedSpan span(SpanKind::kInvoke, txn);
  return CountInvoke(inner_->InvokeOnce(txn, seq, object, member, op));
}

Status TracedEndpoint::CommitOnce(TxnId txn, uint64_t seq) {
  ScopedSpan span(SpanKind::kCommit, txn);
  return inner_->CommitOnce(txn, seq);
}

Status TracedEndpoint::AbortOnce(TxnId txn, uint64_t seq) {
  ScopedSpan span(SpanKind::kAbort, txn);
  return inner_->AbortOnce(txn, seq);
}

Status TracedEndpoint::SleepOnce(TxnId txn, uint64_t seq) {
  ScopedSpan span(SpanKind::kSleep, txn);
  return inner_->SleepOnce(txn, seq);
}

Status TracedEndpoint::AwakeOnce(TxnId txn, uint64_t seq) {
  ScopedSpan span(SpanKind::kAwake, txn);
  return CountAwake(inner_->AwakeOnce(txn, seq));
}

Result<TxnState> TracedEndpoint::StateOf(TxnId txn) const {
  ScopedSpan span(SpanKind::kStateOf, txn);
  return inner_->StateOf(txn);
}

std::vector<GtmEvent> TracedEndpoint::TakeEvents() {
  ScopedSpan span(SpanKind::kEvents);
  return inner_->TakeEvents();
}

std::vector<TxnId> TracedEndpoint::AbortExpiredWaits(Duration max_wait) {
  ScopedSpan span(SpanKind::kSweep);
  return inner_->AbortExpiredWaits(max_wait);
}

// --- TracedShardBackend ------------------------------------------------------

Status TracedShardBackend::Prepare(preserial::cluster::ShardId shard,
                                   TxnId branch) {
  ++counts_.prepares;
  ScopedSpan span(SpanKind::kPrepare);
  Status s = inner_->Prepare(shard, branch);
  if (!s.ok()) ++counts_.no_votes;
  return s;
}

Status TracedShardBackend::CommitPrepared(preserial::cluster::ShardId shard,
                                          TxnId branch) {
  ScopedSpan span(SpanKind::kCommitPrepared);
  return inner_->CommitPrepared(shard, branch);
}

Status TracedShardBackend::AbortBranch(preserial::cluster::ShardId shard,
                                       TxnId branch) {
  ScopedSpan span(SpanKind::kAbortBranch);
  return inner_->AbortBranch(shard, branch);
}

// --- CountingWal -------------------------------------------------------------

CountingWal::Counts CountingWal::counts() const {
  return Counts{appends_.load(std::memory_order_relaxed),
                bytes_.load(std::memory_order_relaxed),
                syncs_.load(std::memory_order_relaxed)};
}

Status CountingWal::Append(std::string_view bytes) {
  appends_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(static_cast<int64_t>(bytes.size()),
                   std::memory_order_relaxed);
  ScopedSpan span(append_span_);
  return inner_.Append(bytes);
}

Status CountingWal::Sync() {
  syncs_.fetch_add(1, std::memory_order_relaxed);
  ScopedSpan span(sync_span_);
  return inner_.Sync();
}

}  // namespace perfbench
