#include "txn/txn_manager.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace preserial::txn {

using storage::Row;
using storage::Table;
using storage::Value;

TwoPhaseLockingEngine::TwoPhaseLockingEngine(storage::Database* db,
                                             const Clock* clock,
                                             Options options)
    : db_(db), clock_(clock), options_(options) {}

lock::ResourceId TwoPhaseLockingEngine::RowResource(const std::string& table,
                                                    const Value& key) {
  std::string r = table;
  r.push_back('\x1f');
  key.EncodeTo(&r);
  return r;
}

TxnId TwoPhaseLockingEngine::Begin() {
  const TxnId id = db_->NextTxnId();
  Transaction t;
  t.id = id;
  t.phase = TxnPhase::kActive;
  t.begin_time = clock_ != nullptr ? clock_->Now() : 0;
  txns_.emplace(id, std::move(t));
  ++counters_.begun;
  // Begin records make the log self-describing; recovery ignores them.
  PRESERIAL_CHECK(db_->wal()->LogBegin(id).ok());
  return id;
}

Transaction* TwoPhaseLockingEngine::GetMutable(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

const Transaction* TwoPhaseLockingEngine::Get(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

TxnPhase TwoPhaseLockingEngine::PhaseOf(TxnId txn) const {
  const Transaction* t = Get(txn);
  PRESERIAL_CHECK(t != nullptr) << "unknown txn " << txn;
  return t->phase;
}

void TwoPhaseLockingEngine::AbsorbGrants(
    std::vector<lock::LockGrant> grants) {
  for (const lock::LockGrant& g : grants) {
    Transaction* t = GetMutable(g.txn);
    if (t == nullptr) continue;
    if (t->phase == TxnPhase::kWaiting) {
      t->phase = TxnPhase::kActive;
      runnable_.push_back(g.txn);
    }
  }
}

Status TwoPhaseLockingEngine::AcquireRow(Transaction* t,
                                         const std::string& table,
                                         const Value& key,
                                         lock::LockMode mode) {
  const lock::ResourceId res = RowResource(table, key);
  switch (lock_manager_.Acquire(t->id, res, mode)) {
    case lock::LockResult::kGranted:
      return Status::Ok();
    case lock::LockResult::kWaiting:
      t->phase = TxnPhase::kWaiting;
      ++t->lock_waits;
      ++counters_.lock_waits;
      return Status::Waiting(StrFormat("txn %llu waits for %s on %s",
                                       static_cast<unsigned long long>(t->id),
                                       lock::LockModeName(mode),
                                       table.c_str()));
    case lock::LockResult::kDeadlock:
      ++counters_.deadlocks;
      AbsorbGrants(lock_manager_.TakePendingGrants());
      return Status::Deadlock(StrFormat(
          "txn %llu would deadlock acquiring %s on %s",
          static_cast<unsigned long long>(t->id), lock::LockModeName(mode),
          table.c_str()));
  }
  return Status::Internal("unreachable lock result");
}

Result<Value> TwoPhaseLockingEngine::Read(TxnId txn, const std::string& table,
                                          const Value& key, size_t column) {
  Transaction* t = GetMutable(txn);
  if (t == nullptr || t->phase != TxnPhase::kActive) {
    return Status::FailedPrecondition("Read on non-active transaction");
  }
  PRESERIAL_RETURN_IF_ERROR(AcquireRow(t, table, key, lock::LockMode::kShared));
  PRESERIAL_ASSIGN_OR_RETURN(Table * tab, db_->GetTable(table));
  ++t->operations;
  return tab->GetColumnByKey(key, column);
}

Result<Value> TwoPhaseLockingEngine::ReadForUpdate(TxnId txn,
                                                   const std::string& table,
                                                   const Value& key,
                                                   size_t column) {
  Transaction* t = GetMutable(txn);
  if (t == nullptr || t->phase != TxnPhase::kActive) {
    return Status::FailedPrecondition("ReadForUpdate on non-active txn");
  }
  const lock::LockMode mode = options_.use_update_locks
                                  ? lock::LockMode::kUpdate
                                  : lock::LockMode::kShared;
  PRESERIAL_RETURN_IF_ERROR(AcquireRow(t, table, key, mode));
  PRESERIAL_ASSIGN_OR_RETURN(Table * tab, db_->GetTable(table));
  ++t->operations;
  return tab->GetColumnByKey(key, column);
}

Status TwoPhaseLockingEngine::Write(TxnId txn, const std::string& table,
                                    const Value& key, size_t column,
                                    Value v) {
  Transaction* t = GetMutable(txn);
  if (t == nullptr || t->phase != TxnPhase::kActive) {
    return Status::FailedPrecondition("Write on non-active transaction");
  }
  PRESERIAL_ASSIGN_OR_RETURN(Table * tab, db_->GetTable(table));
  if (column == tab->schema().primary_key()) {
    return Status::InvalidArgument("cannot write the primary-key column");
  }
  PRESERIAL_RETURN_IF_ERROR(
      AcquireRow(t, table, key, lock::LockMode::kExclusive));
  PRESERIAL_ASSIGN_OR_RETURN(Row before, tab->GetByKey(key));
  Row after = before;
  after.Set(column, std::move(v));
  // UpdateByKey validates schema and CHECK constraints.
  PRESERIAL_RETURN_IF_ERROR(tab->UpdateByKey(key, after));
  t->undo.RecordUpdate(table, key, std::move(before));
  PRESERIAL_RETURN_IF_ERROR(
      db_->wal()->LogUpdate(txn, table, key, std::move(after)));
  ++t->operations;
  return Status::Ok();
}

Status TwoPhaseLockingEngine::Commit(TxnId txn) {
  Transaction* t = GetMutable(txn);
  if (t == nullptr || t->phase != TxnPhase::kActive) {
    return Status::FailedPrecondition("Commit on non-active transaction");
  }
  PRESERIAL_RETURN_IF_ERROR(db_->wal()->LogCommit(txn));
  t->phase = TxnPhase::kCommitted;
  t->undo.Clear();
  ++counters_.committed;
  AbsorbGrants(lock_manager_.ReleaseAll(txn));
  return Status::Ok();
}

Status TwoPhaseLockingEngine::Abort(TxnId txn) {
  Transaction* t = GetMutable(txn);
  if (t == nullptr ||
      (t->phase != TxnPhase::kActive && t->phase != TxnPhase::kWaiting)) {
    return Status::FailedPrecondition("Abort on non-live transaction");
  }
  PRESERIAL_RETURN_IF_ERROR(t->undo.Apply(db_->catalog()));
  t->undo.Clear();
  PRESERIAL_RETURN_IF_ERROR(db_->wal()->LogAbort(txn));
  t->phase = TxnPhase::kAborted;
  ++counters_.aborted;
  AbsorbGrants(lock_manager_.ReleaseAll(txn));
  return Status::Ok();
}

std::vector<TxnId> TwoPhaseLockingEngine::TakeRunnable() {
  std::vector<TxnId> out;
  out.swap(runnable_);
  return out;
}

}  // namespace preserial::txn
