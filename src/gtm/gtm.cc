#include "gtm/gtm.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "semantics/commutativity.h"
#include "semantics/reconcile.h"
#include "storage/table.h"

namespace preserial::gtm {

using semantics::MemberId;
using semantics::OpClass;
using semantics::Operation;
using storage::Value;

namespace {

// Table I, or only read/read sharing under the exclusive ablation. The
// kAdmitAssignWithAddSub defect applies to the admission mask alone.
ConflictMask MakeConflictMask(const GtmOptions& options, bool admission) {
  auto assign_or_addsub = [](OpClass c) {
    return c == OpClass::kUpdateAssign || c == OpClass::kUpdateAddSub;
  };
  ConflictMask mask;
  for (size_t h = 0; h < semantics::kNumOpClasses; ++h) {
    for (size_t r = 0; r < semantics::kNumOpClasses; ++r) {
      const auto held = static_cast<OpClass>(h);
      const auto requested = static_cast<OpClass>(r);
      bool conflict =
          options.semantic_sharing
              ? !semantics::Compatible(held, requested)
              : !(held == OpClass::kRead && requested == OpClass::kRead);
      if (admission &&
          options.mutation == GtmMutation::kAdmitAssignWithAddSub &&
          held != requested && assign_or_addsub(held) &&
          assign_or_addsub(requested)) {
        conflict = false;
      }
      if (conflict) {
        mask.bits |= uint64_t{1} << (h * semantics::kNumOpClasses + r);
      }
    }
  }
  return mask;
}

}  // namespace

Gtm::Gtm(storage::Database* db, const Clock* clock, GtmOptions options)
    : db_(db),
      clock_(clock),
      options_(options),
      conflict_(MakeConflictMask(options, /*admission=*/false)),
      admission_conflict_(MakeConflictMask(options, /*admission=*/true)),
      sst_(db) {}

// --- object registry ---------------------------------------------------------

Status Gtm::RegisterObject(const ObjectId& id, const std::string& table,
                           const Value& key,
                           std::vector<size_t> member_columns,
                           semantics::LogicalDependencies deps) {
  if (objects_.count(id) > 0) {
    return Status::AlreadyExists("object '" + id + "' already registered");
  }
  if (member_columns.empty()) {
    return Status::InvalidArgument("object needs at least one member");
  }
  PRESERIAL_ASSIGN_OR_RETURN(storage::Table * tab, db_->GetTable(table));
  auto obj = std::make_unique<ObjectState>();
  obj->id = id;
  obj->table = table;
  obj->key = key;
  obj->deps = std::move(deps);
  for (size_t col : member_columns) {
    if (col >= tab->schema().num_columns()) {
      return Status::InvalidArgument(
          StrFormat("member column %zu out of range for '%s'", col,
                    table.c_str()));
    }
    PRESERIAL_ASSIGN_OR_RETURN(Value v, tab->GetColumnByKey(key, col));
    obj->member_columns.push_back(col);
    obj->permanent.push_back(std::move(v));
  }
  obj->committed = CommitSummary(obj->num_members());
  objects_.emplace(id, std::move(obj));
  return Status::Ok();
}

Status Gtm::RegisterRowObject(const ObjectId& id, const std::string& table,
                              const Value& key) {
  PRESERIAL_ASSIGN_OR_RETURN(storage::Table * tab, db_->GetTable(table));
  std::vector<size_t> columns;
  for (size_t c = 0; c < tab->schema().num_columns(); ++c) {
    if (c != tab->schema().primary_key()) columns.push_back(c);
  }
  return RegisterObject(id, table, key, std::move(columns));
}

Result<const ObjectState*> Gtm::GetObject(const ObjectId& id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("no GTM object '" + id + "'");
  }
  return static_cast<const ObjectState*>(it->second.get());
}

std::vector<ObjectId> Gtm::ObjectIds() const {
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [id, _] : objects_) out.push_back(id);
  return out;
}

ObjectState* Gtm::GetObjectMutable(const ObjectId& id) {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.get();
}

Status Gtm::RefreshPermanent(const ObjectId& id) {
  ObjectState* obj = GetObjectMutable(id);
  if (obj == nullptr) return Status::NotFound("no GTM object '" + id + "'");
  if (!obj->pending.empty() || !obj->waiting.empty() ||
      !obj->committing.empty()) {
    return Status::FailedPrecondition(
        "RefreshPermanent requires a quiescent object (no pending, waiting "
        "or committing transactions)");
  }
  PRESERIAL_ASSIGN_OR_RETURN(storage::Table * tab, db_->GetTable(obj->table));
  for (size_t m = 0; m < obj->num_members(); ++m) {
    PRESERIAL_ASSIGN_OR_RETURN(
        Value v, tab->GetColumnByKey(obj->key, obj->member_columns[m]));
    obj->permanent[m] = std::move(v);
  }
  return Status::Ok();
}

Result<Value> Gtm::PermanentValue(const ObjectId& id, MemberId member) const {
  PRESERIAL_ASSIGN_OR_RETURN(const ObjectState* obj, GetObject(id));
  if (member >= obj->num_members()) {
    return Status::InvalidArgument(
        StrFormat("member %zu out of range for '%s'", member, id.c_str()));
  }
  return obj->permanent[member];
}

// --- helpers -------------------------------------------------------------------

ManagedTxn* Gtm::GetLiveTxn(TxnId txn) {
  auto it = live_.find(txn);
  return it == live_.end() ? nullptr : it->second.get();
}

const ManagedTxn* Gtm::GetTxn(TxnId txn) const {
  auto it = live_.find(txn);
  return it == live_.end() ? nullptr : it->second.get();
}

void Gtm::Retire(TxnId txn) {
  auto it = live_.find(txn);
  if (it == live_.end()) return;
  finished_.Add(txn, it->second->state());
  live_.erase(it);
}

Result<TxnState> Gtm::StateOf(TxnId txn) const {
  if (const ManagedTxn* t = GetTxn(txn)) return t->state();
  if (std::optional<TxnState> s = finished_.Find(txn)) return *s;
  return Status::NotFound(StrFormat("unknown GTM txn %llu",
                                    static_cast<unsigned long long>(txn)));
}

std::vector<TxnId> Gtm::TransactionsInState(TxnState state) const {
  if (!IsLive(state)) return finished_.InState(state);
  std::vector<TxnId> out;
  for (const auto& [id, t] : live_) {
    if (t->state() == state) out.push_back(id);
  }
  return out;
}

std::optional<AwakeBlocker> Gtm::AwakeConflict(const ObjectState& obj,
                                               TxnId sleeper,
                                               TimePoint slept_at) const {
  if (options_.mutation == GtmMutation::kSkipAwakeStalenessCheck) {
    // Pretend the sleep just started: no committed X_tc can be newer, so
    // the Algorithm 9 staleness comparison never fires. Live-holder
    // conflicts are still honoured.
    slept_at = kNoTimeout;
  }
  return FindAwakeConflict(obj, sleeper, slept_at, conflict_);
}

Result<Value> Gtm::ReconcileCell(OpClass cls, const Value& read,
                                 const Value& temp,
                                 const Value& permanent) const {
  switch (options_.mutation) {
    case GtmMutation::kReconcileMulDivAsAddSub:
      if (cls == OpClass::kUpdateMulDiv) {
        return semantics::Reconcile(OpClass::kUpdateAddSub, read, temp,
                                    permanent);
      }
      break;
    case GtmMutation::kReconcileAddSubLastWrite:
      if (cls == OpClass::kUpdateAddSub) return temp;
      break;
    default:
      break;
  }
  return semantics::Reconcile(cls, read, temp, permanent);
}

// --- Algorithm 1: begin --------------------------------------------------------

TxnId Gtm::Begin(int priority) {
  const TxnId id = db_->NextTxnId();
  live_.emplace_hint(live_.end(), id,
                    std::make_unique<ManagedTxn>(id, clock_->Now(), priority));
  ++metrics_.counters().begun;
  trace_.Record(clock_->Now(), TraceEventKind::kBegin, id);
  return id;
}

// --- constraint-aware admission (Sec. VII mitigation 2) ------------------------

Status Gtm::CheckConstraintAdmission(const ManagedTxn& t,
                                     const ObjectState& obj, MemberId member,
                                     const Operation& op) const {
  if (!options_.constraint_aware_admission) return Status::Ok();
  if (op.cls != OpClass::kUpdateAddSub) return Status::Ok();

  Result<storage::Table*> tab = db_->GetTable(obj.table);
  if (!tab.ok()) return tab.status();
  const std::vector<const storage::CheckConstraint*> constraints =
      tab.value()->ConstraintsOn(obj.member_columns[member]);
  if (constraints.empty()) return Status::Ok();

  const Cell cell{obj.id, member};
  // This transaction's net delta after the proposed operation.
  const Value own_read = t.HasTemp(cell)
                             ? obj.read.at(t.id()).at(member)
                             : obj.permanent[member];
  const Value own_base = t.HasTemp(cell) ? t.GetTemp(cell).value()
                                         : obj.permanent[member];
  PRESERIAL_ASSIGN_OR_RETURN(Value own_after,
                             semantics::Transition(own_base, op));

  // Pessimistic projection: committed value plus every holder's *negative*
  // net delta (positive deltas may still abort, so they do not count).
  PRESERIAL_ASSIGN_OR_RETURN(Value projected,
                             Value::Sub(own_after, own_read));
  PRESERIAL_ASSIGN_OR_RETURN(projected,
                             Value::Add(projected, obj.permanent[member]));
  for (const auto& [holder, ops] : obj.pending) {
    if (holder == t.id()) continue;
    auto cls_it = ops.find(member);
    if (cls_it == ops.end() || cls_it->second != OpClass::kUpdateAddSub) {
      continue;
    }
    const ManagedTxn* h = GetTxn(holder);
    if (h == nullptr || !h->HasTemp(cell)) continue;
    const Value& h_read = obj.read.at(holder).at(member);
    PRESERIAL_ASSIGN_OR_RETURN(
        Value h_delta, Value::Sub(h->GetTemp(cell).value(), h_read));
    PRESERIAL_ASSIGN_OR_RETURN(int sign, Value::Compare(h_delta,
                                                        Value::Int(0)));
    if (sign < 0) {
      PRESERIAL_ASSIGN_OR_RETURN(projected, Value::Add(projected, h_delta));
    }
  }
  for (const storage::CheckConstraint* c : constraints) {
    PRESERIAL_ASSIGN_OR_RETURN(bool holds, c->Holds(projected));
    if (!holds) {
      return Status::ConstraintViolation(StrFormat(
          "admission denied on %s#%zu: projected value %s violates '%s'",
          obj.id.c_str(), member, projected.ToString().c_str(),
          c->name().c_str()));
    }
  }
  return Status::Ok();
}

// --- copy manipulation ----------------------------------------------------------

Status Gtm::ApplyToCopy(ManagedTxn* t, ObjectState* obj, MemberId member,
                        const Operation& op) {
  const Cell cell{obj->id, member};
  PRESERIAL_ASSIGN_OR_RETURN(Value temp, t->GetTemp(cell));
  Status admission = CheckConstraintAdmission(*t, *obj, member, op);
  if (!admission.ok()) {
    ++metrics_.counters().admission_denials;
    if (trace_.enabled()) {
      trace_.Record(clock_->Now(), TraceEventKind::kAdmissionDenial, t->id(),
                    obj->id, op.ToString());
    }
    return admission;
  }
  PRESERIAL_ASSIGN_OR_RETURN(Value next, semantics::Transition(temp, op));
  t->SetTemp(cell, std::move(next));
  ++t->ops_executed;
  // Every successful copy mutation (first grant, repeated same-class op,
  // upgrade, re-grant at Awake) lands here, so this is the one place the
  // complete effect history can be recorded.
  if (trace_.enabled()) {
    trace_.RecordOp(clock_->Now(), TraceEventKind::kApply, t->id(), obj->id,
                    member, op);
  }
  return Status::Ok();
}

Status Gtm::GrantAndApply(ManagedTxn* t, ObjectState* obj, MemberId member,
                          const Operation& op) {
  const Cell cell{obj->id, member};
  // Fresh snapshot: X_read = A_temp = X_permanent (Alg 2 postcondition).
  obj->pending[t->id()][member] = op.cls;
  obj->read[t->id()][member] = obj->permanent[member];
  t->GrantClass(cell, op.cls);
  t->SetTemp(cell, obj->permanent[member]);
  t->NoteInvolved(obj);
  Status s = ApplyToCopy(t, obj, member, op);
  if (!s.ok()) {
    // Roll the grant back; the transaction keeps running without it.
    auto pit = obj->pending.find(t->id());
    if (pit != obj->pending.end()) {
      pit->second.erase(member);
      if (pit->second.empty()) obj->pending.erase(pit);
    }
    auto rit = obj->read.find(t->id());
    if (rit != obj->read.end()) {
      rit->second.erase(member);
      if (rit->second.empty()) obj->read.erase(rit);
    }
    t->RevokeGrant(cell);
    t->ClearTemp(cell);
    return s;
  }
  return Status::Ok();
}

// --- Algorithm 2: invocation ----------------------------------------------------

Status Gtm::Invoke(TxnId txn, const ObjectId& object, MemberId member,
                   const Operation& op) {
  ManagedTxn* t = GetLiveTxn(txn);
  if (t == nullptr || t->state() != TxnState::kActive) {
    return Status::FailedPrecondition(
        StrFormat("Invoke requires an Active transaction (txn %llu is %s)",
                  static_cast<unsigned long long>(txn),
                  t == nullptr ? "unknown/terminal"
                               : TxnStateName(t->state())));
  }
  PRESERIAL_RETURN_IF_ERROR(op.Validate());
  t->set_last_activity(clock_->Now());
  ObjectState* obj = GetObjectMutable(object);
  if (obj == nullptr) {
    return Status::NotFound("no GTM object '" + object + "'");
  }
  if (member >= obj->num_members()) {
    return Status::InvalidArgument(
        StrFormat("member %zu out of range for '%s'", member,
                  object.c_str()));
  }
  ++metrics_.counters().invocations;
  const Cell cell{object, member};

  if (t->HasGrant(cell)) {
    const OpClass held = t->GrantedClass(cell).value();
    if (op.cls == held || op.cls == OpClass::kRead) {
      // Same class (or a read of the own copy): execute directly.
      return ApplyToCopy(t, obj, member, op);
    }
    if (held == OpClass::kRead) {
      // Upgrade read -> mutation: allowed only when nobody else conflicts
      // (queued upgrades are not supported; see class comment).
      if (auto blocker = FindAdmissionConflict(*obj, txn, member, op.cls,
                                               admission_conflict_)) {
        return Status::Conflict(StrFormat(
            "upgrade of txn %llu on %s#%zu blocked by txn %llu",
            static_cast<unsigned long long>(txn), object.c_str(), member,
            static_cast<unsigned long long>(*blocker)));
      }
      Status admission = CheckConstraintAdmission(*t, *obj, member, op);
      if (!admission.ok()) {
        ++metrics_.counters().admission_denials;
        return admission;
      }
      obj->pending[txn][member] = op.cls;
      t->GrantClass(cell, op.cls);
      return ApplyToCopy(t, obj, member, op);
    }
    // Mixing two different mutation classes on one member breaks the
    // paper's constraint (i).
    return Status::FailedPrecondition(StrFormat(
        "txn %llu already performs %s on %s#%zu; cannot also perform %s",
        static_cast<unsigned long long>(txn), OpClassName(held),
        object.c_str(), member, OpClassName(op.cls)));
  }

  // Fresh admission.
  const std::optional<TxnId> blocker =
      FindAdmissionConflict(*obj, txn, member, op.cls, admission_conflict_);
  bool starved = false;
  if (!blocker.has_value() && options_.starvation_waiter_threshold > 0 &&
      CountIncompatibleWaiters(*obj, txn, member, op.cls, conflict_) >=
          options_.starvation_waiter_threshold) {
    starved = true;
    ++metrics_.counters().starvation_denials;
  }
  if (!blocker.has_value() && !starved) {
    Status admission = CheckConstraintAdmission(*t, *obj, member, op);
    if (!admission.ok()) {
      ++metrics_.counters().admission_denials;
      return admission;
    }
    const bool shared = !obj->pending.empty() || !obj->committing.empty();
    PRESERIAL_RETURN_IF_ERROR(GrantAndApply(t, obj, member, op));
    ++metrics_.counters().granted_immediately;
    if (shared) ++metrics_.counters().shared_grants;
    if (trace_.enabled()) {
      trace_.RecordOp(clock_->Now(), TraceEventKind::kGrant, txn, object,
                      member, op,
                      op.ToString() + (shared ? " [shared]" : ""));
    }
    return Status::Ok();
  }

  // Wait path (Alg 2, second case): A_state = Waiting, enqueue, A_temp = ⊥.
  // Position: behind every entry of equal or higher priority (FIFO within
  // a priority band).
  const TimePoint now = clock_->Now();
  const WaitEntry entry{txn, member, op, now, t->priority()};
  auto pos = obj->waiting.begin();
  while (pos != obj->waiting.end() && pos->priority >= entry.priority) {
    ++pos;
  }
  obj->waiting.insert(pos, entry);
  t->set_state(TxnState::kWaiting);
  t->SetWaitSince(object, now);
  t->NoteInvolved(obj);
  ++metrics_.counters().waits;
  if (trace_.enabled()) {
    trace_.RecordOp(now, TraceEventKind::kWait, txn, object, member, op,
                    op.ToString());
  }

  if (options_.deadlock_detection) {
    lock::WaitsForGraph wfg = BuildWaitsForGraph();
    if (wfg.HasCycleFrom(txn)) {
      // Refuse the request: back the entry out, restore Active.
      obj->waiting.erase(
          std::remove_if(obj->waiting.begin(), obj->waiting.end(),
                         [txn, member](const WaitEntry& w) {
                           return w.txn == txn && w.member == member;
                         }),
          obj->waiting.end());
      t->set_state(TxnState::kActive);
      t->ClearWaitSince(object);
      ++metrics_.counters().deadlock_refusals;
      trace_.Record(now, TraceEventKind::kDeadlockRefusal, txn, object);
      PumpWaiters(obj);
      return Status::Deadlock(StrFormat(
          "txn %llu waiting on %s#%zu would close a waits-for cycle",
          static_cast<unsigned long long>(txn), object.c_str(), member));
    }
  }
  return Status::Waiting(StrFormat(
      "txn %llu queued on %s#%zu%s", static_cast<unsigned long long>(txn),
      object.c_str(), member,
      starved ? " (starvation guard)"
              : StrFormat(" behind txn %llu",
                          static_cast<unsigned long long>(*blocker))
                    .c_str()));
}

// --- idempotent endpoints -------------------------------------------------------

const Status* Gtm::CachedReply(TxnId txn, uint64_t seq) const {
  auto it = replies_.find({txn, seq});
  return it == replies_.end() ? nullptr : &it->second;
}

const Status* Gtm::LookupCachedReply(TxnId txn, uint64_t seq) {
  const Status* cached = CachedReply(txn, seq);
  if (cached == nullptr) return nullptr;
  ++metrics_.counters().duplicates_suppressed;
  if (trace_.enabled()) {
    trace_.Record(clock_->Now(), TraceEventKind::kDuplicateSuppressed, txn, "",
                  StrFormat("seq %llu -> %s",
                            static_cast<unsigned long long>(seq),
                            StatusCodeName(cached->code())));
  }
  return cached;
}

void Gtm::CacheReply(TxnId txn, uint64_t seq, const Status& reply) {
  if (StateOf(txn).ok()) replies_[{txn, seq}] = reply;
}

Status Gtm::ExecuteOnce(TxnId txn, uint64_t seq,
                        const std::function<Status()>& call) {
  if (const Status* cached = LookupCachedReply(txn, seq)) return *cached;
  Status s = call();
  CacheReply(txn, seq, s);
  return s;
}

Status Gtm::InvokeOnce(TxnId txn, uint64_t seq, const ObjectId& object,
                       MemberId member, const Operation& op) {
  if (const Status* cached = LookupCachedReply(txn, seq)) {
    if (cached->code() != StatusCode::kWaiting) return *cached;
    // The original reply parked the client, but the queue may have moved
    // on; answer from the current truth instead of the stale snapshot.
    const ManagedTxn* t = GetTxn(txn);
    if (t == nullptr) {
      return Status::Aborted("transaction aborted while waiting");
    }
    if (t->HasGrant(Cell{object, member})) return Status::Ok();
    return *cached;  // Still queued (or sleeping on the queue).
  }
  Status s = Invoke(txn, object, member, op);
  CacheReply(txn, seq, s);
  return s;
}

Status Gtm::CommitOnce(TxnId txn, uint64_t seq) {
  return ExecuteOnce(txn, seq, [this, txn] { return RequestCommit(txn); });
}

Status Gtm::AbortOnce(TxnId txn, uint64_t seq) {
  return ExecuteOnce(txn, seq, [this, txn] { return RequestAbort(txn); });
}

Status Gtm::SleepOnce(TxnId txn, uint64_t seq) {
  return ExecuteOnce(txn, seq, [this, txn] { return Sleep(txn); });
}

Status Gtm::AwakeOnce(TxnId txn, uint64_t seq) {
  return ExecuteOnce(txn, seq, [this, txn] { return Awake(txn); });
}

Result<Value> Gtm::ReadLocal(TxnId txn, const ObjectId& object,
                             MemberId member) {
  ManagedTxn* t = GetLiveTxn(txn);
  if (t == nullptr) {
    return Status::FailedPrecondition("ReadLocal on unknown/terminal txn");
  }
  t->set_last_activity(clock_->Now());
  const Cell cell{object, member};
  if (t->HasTemp(cell)) return t->GetTemp(cell);
  // No copy yet: a read invocation creates one (may wait).
  PRESERIAL_RETURN_IF_ERROR(Invoke(txn, object, member, Operation::Read()));
  return t->GetTemp(cell);
}

// --- Algorithms 3 + 4: commit ---------------------------------------------------

Status Gtm::RequestCommit(TxnId txn) {
  ManagedTxn* t = GetLiveTxn(txn);
  if (t == nullptr || t->state() != TxnState::kActive) {
    return Status::FailedPrecondition(
        "RequestCommit requires an Active transaction (constraint iii)");
  }
  PRESERIAL_RETURN_IF_ERROR(PrepareInternal(t));
  return CommitPrepared(txn);
}

Status Gtm::Prepare(TxnId txn) {
  ManagedTxn* t = GetLiveTxn(txn);
  if (t == nullptr || (t->state() != TxnState::kActive &&
                       t->state() != TxnState::kSleeping)) {
    return Status::FailedPrecondition(
        "Prepare requires an Active or Sleeping transaction");
  }
  if (t->state() == TxnState::kSleeping) {
    // A branch still parked when the coordinator asks for the vote: apply
    // the Algorithm 9 staleness check (X_tc vs A_t_sleep) before letting
    // it commit — an incompatible operation admitted or committed during
    // the sleep dooms the whole global transaction.
    const TimePoint slept_at = t->sleep_since();
    for (const ObjectState* obj : t->involved()) {
      if (obj->IsWaiting(txn)) {
        return Status::FailedPrecondition(StrFormat(
            "Prepare of sleeping txn %llu refused: invocation still queued "
            "on %s",
            static_cast<unsigned long long>(txn), obj->id.c_str()));
      }
      if (auto blocker = AwakeConflict(*obj, txn, slept_at)) {
        AbortInternal(t, &metrics_.counters().awake_aborts);
        return Status::Aborted(StrFormat(
            "prepare abort: txn %llu conflicted on %s with txn %llu while "
            "sleeping",
            static_cast<unsigned long long>(txn), obj->id.c_str(),
            static_cast<unsigned long long>(blocker->txn)));
      }
    }
    // Validation passed: the vote doubles as the awake (Alg 9, case 2).
    for (ObjectState* obj : t->involved()) obj->sleeping.erase(txn);
    t->total_sleep_time += clock_->Now() - t->sleep_since();
  }
  PRESERIAL_RETURN_IF_ERROR(PrepareInternal(t));
  // Unlike the one-phase path, where a constraint violation simply fails the
  // SST, a yes-vote here is a promise to the coordinator that phase 2 can
  // succeed — so the CHECK constraints are part of the vote.
  PRESERIAL_RETURN_IF_ERROR(ValidatePrepared(t));
  ++metrics_.counters().prepares;
  if (trace_.enabled()) {
    trace_.Record(clock_->Now(), TraceEventKind::kPrepare, txn);
  }
  return Status::Ok();
}

Status Gtm::ValidatePrepared(ManagedTxn* t) {
  const TxnId txn = t->id();
  for (ObjectState* obj : t->involved()) {
    auto cit = obj->committing.find(txn);
    if (cit == obj->committing.end()) continue;
    Result<storage::Table*> tab = db_->GetTable(obj->table);
    if (!tab.ok()) continue;
    for (const auto& [member, cls] : cit->second) {
      const Value& reconciled = obj->new_values[txn][member];
      for (const storage::CheckConstraint* c :
           tab.value()->ConstraintsOn(obj->member_columns[member])) {
        Result<bool> holds = c->Holds(reconciled);
        if (holds.ok() && holds.value()) continue;
        // Build the message before AbortInternal erases the per-txn state
        // that `reconciled` points into.
        Status no_vote = Status::Aborted(StrFormat(
            "prepare validation failed: constraint '%s' on %s rejects "
            "reconciled value %s",
            c->name().c_str(), obj->id.c_str(),
            reconciled.ToString().c_str()));
        prepared_.erase(txn);
        AbortInternal(t, &metrics_.counters().constraint_aborts);
        return no_vote;
      }
    }
  }
  return Status::Ok();
}

// Phase 1 (Alg 3, local commit): reconcile + validate every touched member
// and park the transaction in Committing. No LDBS effects.
Status Gtm::PrepareInternal(ManagedTxn* t) {
  const TxnId txn = t->id();
  t->set_state(TxnState::kCommitting);
  for (ObjectState* obj : t->involved()) {
    auto pit = obj->pending.find(txn);
    if (pit == obj->pending.end()) continue;
    const MemberOps ops = pit->second;
    for (const auto& [member, cls] : ops) {
      const Cell cell{obj->id, member};
      const Value& read = obj->read.at(txn).at(member);
      Result<Value> temp = t->GetTemp(cell);
      PRESERIAL_CHECK(temp.ok());
      Result<Value> reconciled =
          ReconcileCell(cls, read, temp.value(), obj->permanent[member]);
      if (!reconciled.ok()) {
        AbortInternal(t, &metrics_.counters().constraint_aborts);
        return Status::Aborted("reconciliation failed: " +
                               reconciled.status().message());
      }
      ++metrics_.counters().reconciliations;
      obj->new_values[txn][member] = std::move(reconciled).value();
    }
    obj->committing[txn] = ops;
    obj->pending.erase(txn);
  }
  prepared_.insert(txn);
  return Status::Ok();
}

Status Gtm::CommitPrepared(TxnId txn) {
  PRESERIAL_ASSIGN_OR_RETURN(const TxnState state, StateOf(txn));
  if (state == TxnState::kCommitted) {
    return Status::Ok();  // Idempotent redrive by a recovering coordinator.
  }
  if (state != TxnState::kCommitting || prepared_.count(txn) == 0) {
    return Status::FailedPrecondition(StrFormat(
        "CommitPrepared requires a Prepared transaction (txn %llu is %s)",
        static_cast<unsigned long long>(txn), TxnStateName(state)));
  }
  ManagedTxn* t = GetLiveTxn(txn);

  // Re-reconcile against the *current* X_permanent: a compatible
  // transaction may have committed on the same member since Prepare, and
  // its delta must not be clobbered (the merge of eqs. 1-2 is re-run on
  // the fresh base, exactly as the one-shot commit would).
  std::vector<SstExecutor::CellWrite> writes;
  for (ObjectState* obj : t->involved()) {
    auto cit = obj->committing.find(txn);
    if (cit == obj->committing.end()) continue;
    for (const auto& [member, cls] : cit->second) {
      const Cell cell{obj->id, member};
      const Value& read = obj->read.at(txn).at(member);
      Result<Value> temp = t->GetTemp(cell);
      PRESERIAL_CHECK(temp.ok());
      Result<Value> reconciled =
          ReconcileCell(cls, read, temp.value(), obj->permanent[member]);
      if (!reconciled.ok()) {
        prepared_.erase(txn);
        AbortInternal(t, &metrics_.counters().constraint_aborts);
        return Status::Aborted("reconciliation failed: " +
                               reconciled.status().message());
      }
      obj->new_values[txn][member] = reconciled.value();
      if (cls != OpClass::kRead) {
        writes.push_back(SstExecutor::CellWrite{
            obj->table, obj->key, obj->member_columns[member],
            std::move(reconciled).value()});
      }
    }
  }

  // The Secure System Transaction (assumed instantaneous, Sec. VI-A).
  // Transient failures are retried per the Sec. VII recovery policy.
  Status sst_status = sst_.Execute(writes);
  for (int attempt = 0;
       !sst_status.ok() && sst_status.code() == StatusCode::kUnavailable &&
       attempt < options_.sst_retry_limit;
       ++attempt) {
    ++metrics_.counters().sst_retries;
    sst_status = sst_.Execute(writes);
  }
  metrics_.counters().sst_executed = sst_.counters().executed;
  metrics_.counters().sst_failed = sst_.counters().failed;
  metrics_.counters().sst_cells_written = sst_.counters().cells_written;
  metrics_.counters().sst_injected_failures = sst_.counters().injected_failures;
  if (!sst_status.ok()) {
    int64_t* cause = sst_status.code() == StatusCode::kConstraintViolation
                         ? &metrics_.counters().constraint_aborts
                         : &metrics_.counters().user_aborts;
    prepared_.erase(txn);
    AbortInternal(t, cause);
    return Status::Aborted("SST failed: " + sst_status.message());
  }

  // Global commit (Alg 4): install X_new as X_permanent, stamp X_tc.
  // Recorded before the release loop: PumpWaiters below may grant waiters
  // whose admission is *enabled by* this commit, and the trace must show
  // the commit happening first (offline checkers read the ring as the
  // serialization order).
  const TimePoint now = clock_->Now();
  trace_.Record(now, TraceEventKind::kCommit, txn);
  for (ObjectState* obj : t->involved()) {
    auto cit = obj->committing.find(txn);
    if (cit == obj->committing.end()) continue;
    for (const auto& [member, cls] : cit->second) {
      obj->permanent[member] = obj->new_values[txn][member];
      obj->committed.Record(
          member, cls, txn,
          options_.mutation == GtmMutation::kStampCommitSummaryAtBegin
              ? t->begin_time()
              : now);
    }
    obj->committing.erase(cit);
    obj->read.erase(txn);
    obj->new_values.erase(txn);
    PumpWaiters(obj);
  }
  metrics_.execution_time().Add(now - t->begin_time());
  t->set_state(TxnState::kCommitted);
  Retire(txn);
  prepared_.erase(txn);
  ++metrics_.counters().committed;
  return Status::Ok();
}

Status Gtm::AbortPrepared(TxnId txn) {
  PRESERIAL_ASSIGN_OR_RETURN(const TxnState state, StateOf(txn));
  if (state == TxnState::kAborted) {
    return Status::Ok();  // Idempotent redrive by a recovering coordinator.
  }
  if (state == TxnState::kCommitted) {
    return Status::FailedPrecondition(StrFormat(
        "AbortPrepared: txn %llu already committed",
        static_cast<unsigned long long>(txn)));
  }
  if (state != TxnState::kCommitting || prepared_.count(txn) == 0) {
    return Status::FailedPrecondition(StrFormat(
        "AbortPrepared requires a Prepared transaction (txn %llu is %s)",
        static_cast<unsigned long long>(txn), TxnStateName(state)));
  }
  prepared_.erase(txn);
  AbortInternal(GetLiveTxn(txn), &metrics_.counters().prepared_aborts);
  return Status::Ok();
}

// --- Algorithms 5 + 6: abort ----------------------------------------------------

void Gtm::AbortInternal(ManagedTxn* t, int64_t* cause_counter) {
  ++metrics_.counters().aborted;
  if (cause_counter != nullptr) ++*cause_counter;
  const bool awake_cause = cause_counter == &metrics_.counters().awake_aborts;
  // Recorded before the release loop so grants enabled by this abort trace
  // after it (the ring is read as the serialization order).
  trace_.Record(clock_->Now(),
                awake_cause ? TraceEventKind::kAwakeAbort
                            : TraceEventKind::kAbort,
                t->id());
  for (ObjectState* obj : t->involved()) {
    obj->Erase(t->id());
    PumpWaiters(obj);
  }
  t->set_state(TxnState::kAborted);
  Retire(t->id());
}

Status Gtm::RequestAbort(TxnId txn) {
  ManagedTxn* t = GetLiveTxn(txn);
  if (t == nullptr || t->state() == TxnState::kCommitting) {
    return Status::FailedPrecondition(
        "RequestAbort requires a live, non-committing transaction");
  }
  AbortInternal(t, &metrics_.counters().user_aborts);
  return Status::Ok();
}

// --- Algorithms 7 + 8: sleep ----------------------------------------------------

Status Gtm::Sleep(TxnId txn) {
  ManagedTxn* t = GetLiveTxn(txn);
  if (t == nullptr || (t->state() != TxnState::kActive &&
                       t->state() != TxnState::kWaiting)) {
    return Status::FailedPrecondition(
        "Sleep requires an Active or Waiting transaction (Alg 8)");
  }
  if (!options_.sleep_enabled) {
    // Ablation: treat a disconnection the way 2PL would — abort.
    AbortInternal(t, &metrics_.counters().disconnect_aborts);
    return Status::Aborted("sleeping disabled; transaction aborted");
  }
  t->set_sleep_since(clock_->Now());
  t->set_state(TxnState::kSleeping);
  ++metrics_.counters().sleeps;
  trace_.Record(clock_->Now(), TraceEventKind::kSleep, txn);
  for (ObjectState* obj : t->involved()) {
    obj->sleeping.insert(txn);
    // A sleeping holder stops blocking admission (Alg 2 excludes
    // X_sleeping), so queued waiters may become admissible right now.
    PumpWaiters(obj);
  }
  return Status::Ok();
}

// --- Algorithms 9 + 10: awake ---------------------------------------------------

Status Gtm::Awake(TxnId txn) {
  ManagedTxn* t = GetLiveTxn(txn);
  if (t == nullptr || t->state() != TxnState::kSleeping) {
    return Status::FailedPrecondition("Awake requires a Sleeping transaction");
  }
  ++metrics_.counters().awakes;
  const TimePoint now = clock_->Now();
  const TimePoint slept_at = t->sleep_since();

  // Alg 9, conflict case: any incompatible pending/committing holder, or an
  // incompatible commit newer than the sleep, dooms the sleeper.
  for (const ObjectState* obj : t->involved()) {
    if (auto blocker = AwakeConflict(*obj, txn, slept_at)) {
      AbortInternal(t, &metrics_.counters().awake_aborts);
      return Status::Aborted(StrFormat(
          "awake abort: txn %llu conflicted on %s with txn %llu while "
          "sleeping",
          static_cast<unsigned long long>(txn), obj->id.c_str(),
          static_cast<unsigned long long>(blocker->txn)));
    }
  }

  // Alg 9, no-conflict cases: leave every sleeping set; queued invocations
  // are admitted directly with a fresh snapshot (case 1); held grants keep
  // their copies and reconcile at commit (case 2). The AWAKE event is
  // recorded first: the re-grants and pumps below happen *after* the wake
  // in the serialization order the trace captures (every non-abort exit of
  // this function leaves the transaction Active).
  trace_.Record(now, TraceEventKind::kAwake, txn);
  for (ObjectState* obj : t->involved()) {
    obj->sleeping.erase(txn);
    std::vector<WaitEntry> mine;
    for (const WaitEntry& w : obj->waiting) {
      if (w.txn == txn) mine.push_back(w);
    }
    if (!mine.empty()) {
      obj->waiting.erase(
          std::remove_if(obj->waiting.begin(), obj->waiting.end(),
                         [txn](const WaitEntry& w) { return w.txn == txn; }),
          obj->waiting.end());
      t->ClearWaitSince(obj->id);
      for (const WaitEntry& w : mine) {
        Status s = GrantAndApply(t, obj, w.member, w.op);
        if (!s.ok()) {
          // Admission policy refused the buffered operation; surface the
          // refusal but keep the transaction alive (it may retry).
          t->set_state(TxnState::kActive);
          t->total_sleep_time += now - slept_at;
          return s;
        }
      }
    }
    // The sleeper no longer parks its pending grants: waiters that were
    // admitted past it stay (they were compatible or it would have
    // aborted); re-pump in case its wake changes nothing — cheap no-op.
    PumpWaiters(obj);
  }
  t->set_state(TxnState::kActive);
  t->total_sleep_time += now - slept_at;
  t->set_last_activity(now);  // A reconnection counts as activity.
  return Status::Ok();
}

// --- Alg 11 (generalized): admission pump ---------------------------------------

void Gtm::PumpWaiters(ObjectState* obj) {
  size_t i = 0;
  while (i < obj->waiting.size()) {
    const WaitEntry entry = obj->waiting[i];
    if (obj->IsSleeping(entry.txn)) {
      // θ(X_waiting - X_sleeping): sleepers are skipped, not admitted.
      ++i;
      continue;
    }
    if (FindAdmissionConflict(*obj, entry.txn, entry.member, entry.op.cls,
                              admission_conflict_)
            .has_value()) {
      break;  // Strict FIFO for awake waiters.
    }
    ManagedTxn* t = GetLiveTxn(entry.txn);
    if (t == nullptr) {
      // Stale entry of a dead transaction; drop it.
      obj->waiting.erase(obj->waiting.begin() + static_cast<long>(i));
      continue;
    }
    Status s = GrantAndApply(t, obj, entry.member, entry.op);
    if (s.code() == StatusCode::kConstraintViolation) {
      // Constraint-aware admission holds the queue until capacity frees.
      break;
    }
    obj->waiting.erase(obj->waiting.begin() + static_cast<long>(i));
    if (!s.ok()) {
      // Unexpected (e.g. transition failure); abort the waiter rather than
      // wedge the queue.
      PRESERIAL_LOG(Warning) << "admission of txn " << entry.txn
                             << " failed: " << s.ToString();
      AbortInternal(t, &metrics_.counters().user_aborts);
      continue;
    }
    FinishWait(t, obj->id);
    events_.push_back(GtmEvent{entry.txn, obj->id});
    if (trace_.enabled()) {
      trace_.RecordOp(clock_->Now(), TraceEventKind::kGrant, entry.txn,
                      obj->id, entry.member, entry.op,
                      entry.op.ToString() + " [from queue]");
    }
  }
}

void Gtm::FinishWait(ManagedTxn* t, const ObjectId& object) {
  const TimePoint now = clock_->Now();
  auto it = t->wait_since().find(object);
  if (it != t->wait_since().end()) {
    const Duration d = now - it->second;
    t->total_wait_time += d;
    metrics_.wait_time().Add(d);
    t->ClearWaitSince(object);
  }
  t->set_state(TxnState::kActive);
}

// --- wait management --------------------------------------------------------------

std::vector<GtmEvent> Gtm::TakeEvents() {
  std::vector<GtmEvent> out;
  out.swap(events_);
  return out;
}

std::vector<TxnId> Gtm::AbortExpiredWaits(Duration max_wait) {
  const TimePoint now = clock_->Now();
  std::vector<TxnId> victims;
  for (const auto& [id, t] : live_) {
    if (t->state() != TxnState::kWaiting) continue;
    for (const auto& [obj, since] : t->wait_since()) {
      if (now - since > max_wait) {
        victims.push_back(id);
        break;
      }
    }
  }
  for (TxnId v : victims) {
    ManagedTxn* t = GetLiveTxn(v);
    if (t != nullptr) AbortInternal(t, &metrics_.counters().timeout_aborts);
  }
  return victims;
}

std::vector<TxnId> Gtm::SleepIdleTransactions(Duration idle_timeout) {
  const TimePoint now = clock_->Now();
  // Candidates first: Sleep may abort (sleep disabled, or a failed grant in
  // its pump), which moves transactions out of live_.
  std::vector<TxnId> idle;
  for (const auto& [id, t] : live_) {
    if (t->state() != TxnState::kActive && t->state() != TxnState::kWaiting) {
      continue;
    }
    if (now - t->last_activity() > idle_timeout) idle.push_back(id);
  }
  std::vector<TxnId> parked;
  for (TxnId id : idle) {
    if (Sleep(id).ok()) parked.push_back(id);
  }
  return parked;
}

std::vector<TxnId> Gtm::DetectAndResolveDeadlocks() {
  std::vector<TxnId> victims;
  while (true) {
    lock::WaitsForGraph wfg = BuildWaitsForGraph();
    std::vector<TxnId> cycle;
    if (!wfg.DetectAnyCycle(&cycle)) break;
    TxnId victim = cycle.front();
    for (TxnId t : cycle) victim = std::max(victim, t);
    ManagedTxn* vt = GetLiveTxn(victim);
    PRESERIAL_CHECK(vt != nullptr) << "cycle member " << victim << " dead";
    AbortInternal(vt, &metrics_.counters().deadlock_aborts);
    victims.push_back(victim);
  }
  return victims;
}

void Gtm::ForEachWaitEdge(
    const std::function<void(TxnId waiter, TxnId holder,
                             const ObjectId& object)>& fn) const {
  for (const auto& [oid, obj] : objects_) {
    for (size_t i = 0; i < obj->waiting.size(); ++i) {
      const WaitEntry& w = obj->waiting[i];
      if (obj->IsSleeping(w.txn)) continue;  // Parked, not blocking-waiting.
      // Blockers: incompatible non-sleeping holders and committers...
      for (const auto& [holder, ops] : obj->pending) {
        if (holder == w.txn || obj->IsSleeping(holder)) continue;
        if (OpsConflict(ops, w.member, w.op.cls, obj->deps, conflict_)) {
          fn(w.txn, holder, oid);
        }
      }
      for (const auto& [holder, ops] : obj->committing) {
        if (holder == w.txn) continue;
        if (OpsConflict(ops, w.member, w.op.cls, obj->deps, conflict_)) {
          fn(w.txn, holder, oid);
        }
      }
      // ...plus earlier incompatible waiters (FIFO blocks behind them).
      for (size_t j = 0; j < i; ++j) {
        const WaitEntry& earlier = obj->waiting[j];
        if (earlier.txn == w.txn || obj->IsSleeping(earlier.txn)) continue;
        if (obj->deps.Dependent(earlier.member, w.member) &&
            conflict_.Conflicts(earlier.op.cls, w.op.cls)) {
          fn(w.txn, earlier.txn, oid);
        }
      }
    }
  }
}

lock::WaitsForGraph Gtm::BuildWaitsForGraph() const {
  lock::WaitsForGraph wfg;
  ForEachWaitEdge([&wfg](TxnId waiter, TxnId holder, const ObjectId&) {
    wfg.AddEdge(waiter, holder);
  });
  return wfg;
}

obs::GtmExplain Gtm::Explain() const {
  obs::GtmExplain out;
  out.now = clock_->Now();
  out.shard = trace_.default_shard();

  for (const auto& [oid, obj] : objects_) {
    if (obj->pending.empty() && obj->waiting.empty() &&
        obj->committing.empty() && obj->sleeping.empty()) {
      continue;  // Quiet object: nothing to explain.
    }
    obs::ObjectInfo info;
    info.id = oid;
    for (const auto& [txn, ops] : obj->pending) {
      obs::HolderInfo h;
      h.txn = txn;
      h.sleeping = obj->IsSleeping(txn);
      for (const auto& [m, cls] : ops) h.ops[m] = semantics::OpClassName(cls);
      info.holders.push_back(std::move(h));
    }
    for (const auto& [txn, ops] : obj->committing) {
      obs::HolderInfo h;
      h.txn = txn;
      h.committing = true;
      for (const auto& [m, cls] : ops) h.ops[m] = semantics::OpClassName(cls);
      info.holders.push_back(std::move(h));
    }
    for (const WaitEntry& w : obj->waiting) {
      obs::WaitInfo wi;
      wi.txn = w.txn;
      wi.member = w.member;
      wi.op_class = semantics::OpClassName(w.op.cls);
      wi.since = w.arrival;
      wi.waited = out.now - w.arrival;
      wi.priority = w.priority;
      info.waiters.push_back(std::move(wi));
    }
    info.sleeping.assign(obj->sleeping.begin(), obj->sleeping.end());
    info.committed_retained = obj->committed.size();
    out.objects.push_back(std::move(info));
  }

  for (const auto& [id, t] : live_) {
    obs::TxnInfo ti;
    ti.txn = id;
    ti.state = t->state();
    ti.priority = t->priority();
    ti.begin_time = t->begin_time();
    ti.age = out.now - t->begin_time();
    ti.total_wait_time = t->total_wait_time;
    ti.total_sleep_time = t->total_sleep_time;
    ti.ops_executed = t->ops_executed;
    for (const ObjectState* obj : t->involved()) {
      ti.involved.push_back(obj->id);
    }
    out.txns.push_back(std::move(ti));
  }

  ForEachWaitEdge([&out](TxnId waiter, TxnId holder, const ObjectId& object) {
    out.wait_edges.push_back(obs::WaitEdge{waiter, holder, object});
  });

  // Algorithm 9, evaluated read-only: the same AwakeConflict check Awake()
  // will run, so the verdict here is exactly what a real Awake would do if
  // nothing changes in between.
  for (const auto& [id, t] : live_) {
    if (t->state() != TxnState::kSleeping) continue;
    obs::SleeperVerdict v;
    v.txn = id;
    v.sleep_since = t->sleep_since();
    v.asleep_for = out.now - v.sleep_since;
    for (const ObjectState* obj : t->involved()) {
      std::optional<AwakeBlocker> blocker =
          AwakeConflict(*obj, id, v.sleep_since);
      if (!blocker) continue;
      v.will_abort = true;
      v.object = obj->id;
      v.blocker = blocker->txn;
      if (!blocker->commit_time) {
        v.reason = StrFormat(
            "live incompatible holder txn %llu on %s",
            static_cast<unsigned long long>(v.blocker), obj->id.c_str());
      } else {
        v.blocker_commit_time = *blocker->commit_time;
        v.reason = StrFormat(
            "txn %llu committed on %s at X_tc=%.3f > A_t_sleep=%.3f",
            static_cast<unsigned long long>(v.blocker), obj->id.c_str(),
            v.blocker_commit_time, v.sleep_since);
      }
      break;
    }
    out.sleepers.push_back(std::move(v));
  }
  return out;
}

// --- invariants --------------------------------------------------------------------

Status Gtm::CheckInvariants() const {
  // live_ and finished_ partition the transactions by liveness.
  for (const auto& [id, t] : live_) {
    if (!IsLive(t->state())) {
      return Status::Internal(StrFormat(
          "txn %llu is %s but still in the live map",
          static_cast<unsigned long long>(id), TxnStateName(t->state())));
    }
    if (finished_.Find(id).has_value()) {
      return Status::Internal(StrFormat(
          "txn %llu is both live and finished",
          static_cast<unsigned long long>(id)));
    }
    // Involvement handles point into the registry, in object-id order.
    const ObjectState* prev = nullptr;
    for (const ObjectState* obj : t->involved()) {
      auto it = objects_.find(obj->id);
      if (it == objects_.end() || it->second.get() != obj) {
        return Status::Internal(StrFormat(
            "txn %llu holds a stale handle for object %s",
            static_cast<unsigned long long>(id), obj->id.c_str()));
      }
      if (prev != nullptr && !(prev->id < obj->id)) {
        return Status::Internal(StrFormat(
            "txn %llu lists object %s after %s",
            static_cast<unsigned long long>(id), obj->id.c_str(),
            prev->id.c_str()));
      }
      prev = obj;
    }
  }
  // Every cached reply belongs to a live or finished transaction.
  for (const auto& [key, reply] : replies_) {
    if (!StateOf(key.first).ok()) {
      return Status::Internal(StrFormat(
          "cached reply for unknown txn %llu",
          static_cast<unsigned long long>(key.first)));
    }
  }
  for (const auto& [oid, obj] : objects_) {
    // Sleeping is a subset of pending ∪ waiting.
    for (TxnId s : obj->sleeping) {
      if (!obj->IsPending(s) && !obj->IsWaiting(s)) {
        return Status::Internal(StrFormat(
            "object %s: sleeping txn %llu neither pending nor waiting",
            oid.c_str(), static_cast<unsigned long long>(s)));
      }
    }
    // Non-sleeping pending holders must be pairwise compatible.
    for (const auto& [a, ops_a] : obj->pending) {
      if (obj->IsSleeping(a)) continue;
      for (const auto& [b, ops_b] : obj->pending) {
        if (a >= b || obj->IsSleeping(b)) continue;
        if (OpsSetsConflict(ops_a, ops_b, obj->deps, conflict_)) {
          return Status::Internal(StrFormat(
              "object %s: incompatible txns %llu and %llu both pending",
              oid.c_str(), static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(b)));
        }
      }
    }
    // Every pending/waiting txn must exist, be live, and know the object.
    for (const auto& [txn, ops] : obj->pending) {
      const ManagedTxn* t = GetTxn(txn);
      if (t == nullptr || !IsLive(t->state())) {
        return Status::Internal(StrFormat(
            "object %s: pending txn %llu is missing or terminal",
            oid.c_str(), static_cast<unsigned long long>(txn)));
      }
      if (!t->IsInvolved(oid)) {
        return Status::Internal(StrFormat(
            "object %s: pending txn %llu does not list it as involved",
            oid.c_str(), static_cast<unsigned long long>(txn)));
      }
      // Grants, snapshots and copies must line up per member.
      for (const auto& [m, cls] : ops) {
        const Cell cell{oid, m};
        if (!t->HasGrant(cell) || t->GrantedClass(cell).value() != cls) {
          return Status::Internal(StrFormat(
              "object %s#%zu: pending class disagrees with txn grant",
              oid.c_str(), m));
        }
        if (!t->HasTemp(cell)) {
          return Status::Internal(StrFormat(
              "object %s#%zu: pending txn %llu has no virtual copy",
              oid.c_str(), m, static_cast<unsigned long long>(txn)));
        }
        auto rit = obj->read.find(txn);
        if (rit == obj->read.end() || rit->second.count(m) == 0) {
          return Status::Internal(StrFormat(
              "object %s#%zu: pending txn %llu has no X_read snapshot",
              oid.c_str(), m, static_cast<unsigned long long>(txn)));
        }
      }
    }
    for (const WaitEntry& w : obj->waiting) {
      const ManagedTxn* t = GetTxn(w.txn);
      if (t == nullptr || !IsLive(t->state())) {
        return Status::Internal(StrFormat(
            "object %s: waiting txn %llu is missing or terminal",
            oid.c_str(), static_cast<unsigned long long>(w.txn)));
      }
      const TxnState st = t->state();
      if (st != TxnState::kWaiting && st != TxnState::kSleeping) {
        return Status::Internal(StrFormat(
            "object %s: queued txn %llu is %s, not Waiting/Sleeping",
            oid.c_str(), static_cast<unsigned long long>(w.txn),
            TxnStateName(st)));
      }
    }
  }
  // Every Waiting transaction must be queued somewhere.
  for (const auto& [id, t] : live_) {
    if (t->state() != TxnState::kWaiting) continue;
    bool queued = false;
    for (const auto& [oid, obj] : objects_) {
      if (obj->IsWaiting(id)) {
        queued = true;
        break;
      }
    }
    if (!queued) {
      return Status::Internal(StrFormat(
          "txn %llu is Waiting but queued nowhere",
          static_cast<unsigned long long>(id)));
    }
  }
  return Status::Ok();
}

}  // namespace preserial::gtm
