#ifndef PRESERIAL_GTM_GTM_H_
#define PRESERIAL_GTM_GTM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "gtm/conflict.h"
#include "gtm/endpoint.h"
#include "gtm/managed_txn.h"
#include "gtm/metrics.h"
#include "gtm/object_state.h"
#include "gtm/policies.h"
#include "gtm/sst.h"
#include "gtm/tombstones.h"
#include "gtm/trace.h"
#include "lock/waits_for_graph.h"
#include "obs/explain.h"
#include "semantics/operation.h"
#include "storage/database.h"

namespace preserial::gtm {

// The Global Transaction Manager — the paper's middleware and this
// library's primary contribution.
//
// The GTM pre-serializes long running transactions over *virtual copies* of
// database data. Semantically compatible operations (Weihl forward
// commutativity, Table I) share an object concurrently, each transaction
// operating on its private copy (A_temp); at global commit the
// reconciliation algorithms (eqs. 1-2) merge the copies and a Secure
// System Transaction installs the result in the LDBS.
// Disconnected or idle transactions *sleep* instead of aborting and may
// awake and finish unless an incompatible operation committed meanwhile.
//
// Event protocol (Algorithms 1-11 of the paper):
//   Begin()          Alg 1    new Active transaction
//   Invoke()         Alg 2    request + execute an operation on a member:
//                             OK        granted, executed on the copy
//                             kWaiting  queued; a GtmEvent fires on grant
//                             kDeadlock refused (would close a WFG cycle);
//                                       caller should RequestAbort
//                             kConstraintViolation refused by the
//                                       constraint-aware admission policy
//   RequestCommit()  Alg 3+4  reconcile all copies, run the SST, install
//   RequestAbort()   Alg 5+6  discard copies, release admissions
//   Sleep()          Alg 7+8  park a disconnected/idle transaction
//   Awake()          Alg 9+10 resume; kAborted when an incompatible
//                             operation was admitted/committed meanwhile
//
// Unlock (Alg 11) is internal: whenever an object's pending set shrinks,
// the longest FIFO prefix of mutually-admissible, non-sleeping waiters is
// admitted. (This generalizes the paper's empty-pending trigger: admission
// also happens when the remaining holders became compatible with the head
// waiter, which strictly increases concurrency and preserves FIFO
// fairness.)
//
// Externally synchronized; the discrete-event simulator drives it directly
// and GtmService adds a thread-safe blocking facade. In a sharded cluster
// each shard is one Gtm and cluster::GtmRouter speaks GtmEndpoint on top.
class Gtm : public GtmEndpoint {
 public:
  Gtm(storage::Database* db, const Clock* clock, GtmOptions options = {});

  Gtm(const Gtm&) = delete;
  Gtm& operator=(const Gtm&) = delete;

  // --- object registry -------------------------------------------------------

  // Binds a GTM object to database cells: member m lives in
  // `member_columns[m]` of the row `key` in `table`. The committed values
  // are cached as X_permanent. All writes to the bound cells must flow
  // through this Gtm.
  Status RegisterObject(const ObjectId& id, const std::string& table,
                        const storage::Value& key,
                        std::vector<size_t> member_columns,
                        semantics::LogicalDependencies deps = {});

  // Convenience: binds every non-primary-key column of the row as a member
  // (member order = column order).
  Status RegisterRowObject(const ObjectId& id, const std::string& table,
                           const storage::Value& key);

  bool HasObject(const ObjectId& id) const { return objects_.count(id) > 0; }
  Result<const ObjectState*> GetObject(const ObjectId& id) const;
  // Ids of every registered object, lexicographic. Used by offline checkers
  // to snapshot the full permanent state before/after a run.
  std::vector<ObjectId> ObjectIds() const;

  // Reloads X_permanent from the LDBS. Only legal while no transaction
  // holds or waits on the object — it exists for rebinding after external
  // writes (e.g. a bulk load or recovery that bypassed this Gtm), not for
  // concurrent use.
  Status RefreshPermanent(const ObjectId& id);
  // Cached committed value (X_permanent) of a member.
  Result<storage::Value> PermanentValue(const ObjectId& id,
                                        semantics::MemberId member) const;

  // --- the event interface (Algorithms 1-11) --------------------------------

  // Starts a transaction. Higher-priority transactions queue ahead of
  // lower-priority ones on every wait queue (Sec. VII starvation remedy);
  // the default 0 gives plain FIFO.
  TxnId Begin(int priority = 0) override;
  Status Invoke(TxnId txn, const ObjectId& object, semantics::MemberId member,
                const semantics::Operation& op) override;

  // --- idempotent endpoints (at-least-once transport) ------------------------
  //
  // Each *Once call is stamped with a client-chosen request_seq, unique per
  // transaction and reused verbatim on retries. The first delivery executes
  // and caches the reply; redeliveries return the cached reply without
  // re-executing — a retried CommitOnce can never apply twice. The one
  // non-literal replay is a cached kWaiting Invoke: by the time the retry
  // arrives the queued operation may have been granted (or the transaction
  // killed), so the reply is re-derived from the current state.
  Status InvokeOnce(TxnId txn, uint64_t seq, const ObjectId& object,
                    semantics::MemberId member,
                    const semantics::Operation& op) override;
  Status CommitOnce(TxnId txn, uint64_t seq) override;
  Status AbortOnce(TxnId txn, uint64_t seq) override;
  Status SleepOnce(TxnId txn, uint64_t seq) override;
  Status AwakeOnce(TxnId txn, uint64_t seq) override;

  // Reads the transaction's virtual copy (granting a read if necessary).
  Result<storage::Value> ReadLocal(TxnId txn, const ObjectId& object,
                                   semantics::MemberId member) override;
  Status RequestCommit(TxnId txn) override;
  Status RequestAbort(TxnId txn) override;
  Status Sleep(TxnId txn) override;
  Status Awake(TxnId txn) override;

  // --- two-phase commit (cross-shard transactions) ---------------------------
  //
  // A cross-shard global commit splits Algorithms 3 + 4 at the SST boundary.
  // Prepare runs the local-commit half (Alg 3): every touched member is
  // reconciled and validated — including the Algorithm 9 staleness check
  // (X_tc vs A_t_sleep) when the branch is still Sleeping — without touching
  // the LDBS. The transaction parks in Committing until the coordinator
  // decides. CommitPrepared re-runs reconciliation against the then-current
  // X_permanent (compatible transactions may have committed in between and
  // their deltas must not be clobbered), executes the SST and installs
  // X_new (Alg 4); AbortPrepared discards the prepared state and aborts.
  // Both are idempotent on a transaction that already reached the matching
  // terminal state, so a recovering coordinator can safely re-drive an
  // in-doubt shard.
  // RequestCommit == Prepare + CommitPrepared (single-shard fast path).
  Status Prepare(TxnId txn);
  Status CommitPrepared(TxnId txn);
  Status AbortPrepared(TxnId txn);
  bool IsPrepared(TxnId txn) const { return prepared_.count(txn) > 0; }

  // --- wait management -------------------------------------------------------

  // Admission notifications since the last call (queued invocations that
  // were granted).
  std::vector<GtmEvent> TakeEvents() override;

  // Aborts transactions that have been Waiting longer than `max_wait`
  // (timeout-based deadlock/starvation resolution). Returns their ids.
  std::vector<TxnId> AbortExpiredWaits(Duration max_wait) override;

  // The inactivity oracle Ξ (paper Alg 8): puts every Active or Waiting
  // transaction whose last middleware interaction is older than
  // `idle_timeout` to Sleep, exactly as an explicit disconnection would.
  // Returns the newly sleeping transactions.
  std::vector<TxnId> SleepIdleTransactions(Duration idle_timeout);

  // Waits-for-graph sweep: finds every deadlock cycle and aborts one
  // victim per cycle (the youngest transaction, i.e. highest id). Returns
  // the victims. Complements at-enqueue detection for deployments that
  // disable it (the paper's classical 2PL treatment of deadlocks).
  std::vector<TxnId> DetectAndResolveDeadlocks();

  // --- introspection ---------------------------------------------------------

  // Live or finished: a finished transaction keeps its terminal state (and
  // its cached replies) for retried requests and coordinator re-drives.
  Result<TxnState> StateOf(TxnId txn) const override;
  // Live transactions only; a committed or aborted one has been freed.
  const ManagedTxn* GetTxn(TxnId txn) const;
  // Ids of transactions currently in `state` (ascending).
  std::vector<TxnId> TransactionsInState(TxnState state) const;
  // The reply a *Once call stamped `seq` got for `txn`, live or finished;
  // null when none is cached. Moves no counter.
  const Status* CachedReply(TxnId txn, uint64_t seq) const;
  // Transactions that are not yet Committed/Aborted.
  size_t live_transaction_count() const { return live_.size(); }
  GtmMetrics& metrics() { return metrics_; }
  const GtmMetrics& metrics() const { return metrics_; }
  const GtmOptions& options() const { return options_; }
  const SstExecutor& sst() const { return sst_; }
  // For failure injection in tests/chaos runs.
  SstExecutor* mutable_sst() { return &sst_; }

  // Event trace (disabled by default): trace()->Enable(capacity) records
  // every externally visible state transition for audits and debugging.
  TraceLog* trace() { return &trace_; }
  const TraceLog& trace() const { return trace_; }

  // Waits-for graph over waiting transactions (for tests and diagnostics).
  lock::WaitsForGraph BuildWaitsForGraph() const;

  // Full introspection snapshot: live lock table (sharing sets + wait
  // queues), waits-for edges with the object that induces each, live
  // transactions, and — for every Sleeping transaction — the Algorithm 9
  // verdict (would Awake() abort right now, and why) evaluated without
  // side effects. Render with obs::GtmExplain::ToString().
  obs::GtmExplain Explain() const;

  // Cross-checks internal invariants (object/txn agreement, queue
  // consistency); used heavily by the test suite.
  Status CheckInvariants() const;

 private:
  ManagedTxn* GetLiveTxn(TxnId txn);
  ObjectState* GetObjectMutable(const ObjectId& id);

  // Frees a transaction that just committed or aborted and leaves its
  // terminal state in finished_. Every ManagedTxn* to it dangles after.
  void Retire(TxnId txn);

  // Dedup lookup shared by the *Once endpoints. Returns the cached reply
  // when `seq` already executed for `txn` (terminal transactions answer
  // too), bumping the duplicates_suppressed counter; null on first
  // delivery or unknown transaction.
  const Status* LookupCachedReply(TxnId txn, uint64_t seq);
  // Caches `reply` under (txn, seq) when `txn` is live or finished.
  void CacheReply(TxnId txn, uint64_t seq, const Status& reply);
  // Runs `call` on first delivery and caches its reply under `seq`.
  Status ExecuteOnce(TxnId txn, uint64_t seq,
                     const std::function<Status()>& call);

  // FindAwakeConflict with the kSkipAwakeStalenessCheck defect, if set.
  std::optional<AwakeBlocker> AwakeConflict(const ObjectState& obj,
                                            TxnId sleeper,
                                            TimePoint slept_at) const;

  // Eqs. 1-2 with the options_.mutation defect (if any) applied — the one
  // funnel both PrepareInternal and CommitPrepared reconcile through.
  Result<storage::Value> ReconcileCell(semantics::OpClass cls,
                                       const storage::Value& read,
                                       const storage::Value& temp,
                                       const storage::Value& permanent) const;

  // Grants (member, op.cls) to txn on obj with a fresh snapshot and applies
  // `op` to the new copy.
  Status GrantAndApply(ManagedTxn* t, ObjectState* obj,
                       semantics::MemberId member,
                       const semantics::Operation& op);
  // Applies `op` to an existing virtual copy.
  Status ApplyToCopy(ManagedTxn* t, ObjectState* obj,
                     semantics::MemberId member,
                     const semantics::Operation& op);
  // Constraint-aware admission projection (Sec. VII mitigation 2).
  Status CheckConstraintAdmission(const ManagedTxn& t, const ObjectState& obj,
                                  semantics::MemberId member,
                                  const semantics::Operation& op) const;

  // Alg 11 generalization: admit the FIFO prefix of admissible waiters.
  void PumpWaiters(ObjectState* obj);

  // Enumerates blocking edges (waiter -> holder, induced by object) —
  // shared by BuildWaitsForGraph and Explain.
  void ForEachWaitEdge(
      const std::function<void(TxnId waiter, TxnId holder,
                               const ObjectId& object)>& fn) const;

  // Phase 1 of the 2PC split (Alg 3 local commit): reconcile + validate and
  // park `t` in Committing. Shared by RequestCommit and Prepare.
  Status PrepareInternal(ManagedTxn* t);

  // Checks the reconciled values of a just-prepared `t` against the LDBS
  // CHECK constraints, so a doomed branch votes no in phase 1 instead of
  // surfacing as a phase-2 heuristic hazard. Aborts `t` on violation.
  Status ValidatePrepared(ManagedTxn* t);

  // Shared abort path (Alg 5+6); `counter` points at the cause counter to
  // bump.
  void AbortInternal(ManagedTxn* t, int64_t* cause_counter);

  void FinishWait(ManagedTxn* t, const ObjectId& object);

  storage::Database* db_;
  const Clock* clock_;
  GtmOptions options_;
  // Class conflicts under options_.semantic_sharing; admission uses a
  // second mask, which differs only under the kAdmitAssignWithAddSub
  // mutation.
  ConflictMask conflict_;
  ConflictMask admission_conflict_;
  SstExecutor sst_;
  std::map<ObjectId, std::unique_ptr<ObjectState>> objects_;
  // Transactions not yet Committed/Aborted; the sweeps walk only these.
  std::map<TxnId, std::unique_ptr<ManagedTxn>> live_;
  // Terminal states of committed and aborted transactions, kept so that
  // retried requests still get their outcome.
  Tombstones finished_;
  // Replies of the *Once endpoints by (transaction, request_seq), for live
  // and finished transactions alike.
  std::map<std::pair<TxnId, uint64_t>, Status> replies_;
  // Transactions parked in Committing by Prepare, awaiting the
  // coordinator's decision.
  std::set<TxnId> prepared_;
  std::vector<GtmEvent> events_;
  GtmMetrics metrics_;
  TraceLog trace_;
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_GTM_H_
