#ifndef PRESERIAL_GTM_POLICIES_H_
#define PRESERIAL_GTM_POLICIES_H_

namespace preserial::gtm {

// Deliberate, test-only protocol defects ("MutantGtm"). Each value disables
// exactly one correctness-critical rule so the check:: oracle can be shown
// to catch the resulting Definition 1 / eq. 1-2 / Algorithm 9 violations —
// an oracle never seen failing is itself untested. Always kNone outside
// tests/check_mutant_test.cc.
enum class GtmMutation {
  kNone,
  // Algorithm 9: skip the staleness comparison X_tc > A_t_sleep when a
  // sleeper awakes, so commits that overlapped the sleep go unnoticed.
  kSkipAwakeStalenessCheck,
  // Eq. 2: reconcile mul/div updates with the additive eq. 1 formula.
  kReconcileMulDivAsAddSub,
  // Eq. 1: install A_temp verbatim instead of merging the delta into the
  // current X_permanent — the classic lost update between compatible
  // writers.
  kReconcileAddSubLastWrite,
  // Table I: admit assignments alongside add/sub holders, violating
  // Definition 1 on a pair the matrix declares incompatible.
  kAdmitAssignWithAddSub,
  // Algorithm 9 bookkeeping: stamp each X_committed summary slot with the
  // committing transaction's begin time instead of its X_tc, so a sleeper
  // wakes over an incompatible commit by a transaction that began before
  // the sleep.
  kStampCommitSummaryAtBegin,
};

// Tunable behaviour of the Gtm. Defaults reproduce the paper's model;
// the remaining knobs implement its Sec. VII "future work" mitigations and
// the ablations in bench/.
struct GtmOptions {
  // --- paper model ----------------------------------------------------------

  // When false, the compatibility matrix degenerates to "reads share,
  // everything else conflicts": the GTM behaves like an exclusive-lock
  // middleware (ablation bench_ablation_semantics).
  bool semantic_sharing = true;

  // When false, Sleep() aborts the transaction instead of parking it —
  // the 2PL-style treatment of disconnections (bench_ablation_sleep).
  bool sleep_enabled = true;

  // --- deadlock -------------------------------------------------------------

  // Check the waits-for graph when an invocation queues; a request that
  // would close a cycle is refused (kDeadlock) so the caller can abort.
  bool deadlock_detection = true;

  // --- Sec. VII mitigation 1: starvation guard ------------------------------

  // Deny the compatible fast path when at least this many incompatible
  // waiters are queued on the object (the "lock-deny" proposal), forcing
  // newcomers to queue behind them. 0 disables the guard.
  int starvation_waiter_threshold = 0;

  // --- Sec. VII mitigation 2: constraint-aware admission ---------------------

  // Before applying an add/sub operation, verify that the *pessimistic*
  // projection of the bound cell — X_permanent plus every pending holder's
  // negative net delta plus this operation — still satisfies the table's
  // CHECK constraints. Violating operations are refused up front instead of
  // failing the whole transaction at SST time.
  bool constraint_aware_admission = false;

  // --- Sec. VII open problem: SST failure recovery ---------------------------

  // Transient SST failures (kUnavailable, e.g. a flaky link to the LDBS)
  // are retried up to this many times before the GTM aborts the
  // transaction. Deterministic failures (constraint violations) are never
  // retried. 0 = no retries (the paper's assumption that SSTs always
  // succeed).
  int sst_retry_limit = 0;

  // --- testing ---------------------------------------------------------------

  // Injected protocol defect for oracle self-tests; kNone in production.
  GtmMutation mutation = GtmMutation::kNone;
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_POLICIES_H_
