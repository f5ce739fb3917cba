#include "mobile/session.h"

#include "common/logging.h"
#include "common/strings.h"

namespace preserial::mobile {

const char* AbortCauseName(AbortCause c) {
  switch (c) {
    case AbortCause::kNone:
      return "none";
    case AbortCause::kDeadlock:
      return "deadlock";
    case AbortCause::kAwakeConflict:
      return "awake-conflict";
    case AbortCause::kConstraint:
      return "constraint";
    case AbortCause::kLockWaitTimeout:
      return "lock-wait-timeout";
    case AbortCause::kDisconnectTimeout:
      return "disconnect-timeout";
    case AbortCause::kChannelLoss:
      return "channel-loss";
    case AbortCause::kOther:
      return "other";
  }
  return "?";
}

// --- FaultTolerantGtmSession ----------------------------------------------------

FaultTolerantGtmSession::FaultTolerantGtmSession(
    gtm::GtmEndpoint* gtm, sim::Simulator* simulator, const LossyChannel* channel,
    Rng* rng, FtPlan plan, PumpFn pump, DoneFn done, gtm::TraceLog* client_trace)
    : gtm_(gtm),
      sim_(simulator),
      plan_(std::move(plan)),
      pump_(std::move(pump)),
      done_(std::move(done)),
      client_trace_(client_trace),
      stub_(simulator, channel, rng, plan_.retry) {
  stub_.set_on_retry([this](int attempt) {
    obs::SpanScope span(obs::ChildOf(ctx_));
    RecordClient(gtm::TraceEventKind::kClientRetry,
                 StrFormat("attempt=%d", attempt));
  });
}

void FaultTolerantGtmSession::RecordClient(gtm::TraceEventKind kind,
                                           std::string detail) {
  if (client_trace_ == nullptr) return;
  client_trace_->Record(sim_->Now(), kind, txn_, plan_.base.object,
                        std::move(detail));
}

void FaultTolerantGtmSession::Start() {
  if (!started_) {
    started_ = true;
    stats_.arrival = sim_->Now();
    stats_.tag = plan_.base.tag;
    stats_.shard = plan_.base.shard;
    ctx_ = obs::NewRootContext();
  }
  // Session establishment is reliable (see class comment); everything after
  // Begin crosses the lossy channel. A replica group whose primary just
  // died refuses new sessions (kInvalidTxnId): retry after the per-attempt
  // deadline until a promoted primary accepts us.
  obs::SpanScope span(obs::ChildOf(ctx_));
  txn_ = gtm_->Begin();
  if (txn_ == kInvalidTxnId) {
    sim_->After(plan_.retry.request_timeout, [this] {
      if (!finished_) Start();
    });
    return;
  }
  stats_.txn = txn_;
  SendInvoke();
}

void FaultTolerantGtmSession::SendInvoke() {
  if (invoke_seq_ == 0) invoke_seq_ = next_seq_++;
  const TxnPlan& base = plan_.base;
  // The request carries its span across the channel: the closure executes
  // at the middleware (possibly more than once) under the span of the
  // logical request, not whatever the simulator happened to be running.
  const obs::TraceContext req = obs::ChildOf(ctx_);
  {
    obs::SpanScope span(req);
    RecordClient(gtm::TraceEventKind::kClientSend, "invoke");
  }
  stub_.Send(
      /*execute=*/[gtm = gtm_, pump = pump_, txn = txn_, seq = invoke_seq_,
                   base, req] {
        obs::SpanScope span(req);
        const Status s =
            gtm->InvokeOnce(txn, seq, base.object, base.member, base.op);
        pump();  // Server-side effects may admit other sessions' waiters.
        return s;
      },
      /*on_reply=*/[this](const Status& s) { OnInvokeReply(s); },
      /*on_exhausted=*/[this] { OnExhausted(); });
}

void FaultTolerantGtmSession::OnInvokeReply(const Status& s) {
  if (finished_ || phase_ != Phase::kInvoke) return;  // Stale reply.
  obs::SpanScope span(obs::ChildOf(ctx_));  // Covers the abort paths below.
  switch (s.code()) {
    case StatusCode::kOk:
      ProceedAfterGrant();
      break;
    case StatusCode::kWaiting:
      // Parked; the (reliable) grant notification resumes us.
      break;
    case StatusCode::kDeadlock:
      (void)gtm_->RequestAbort(txn_);
      Finish(false, AbortCause::kDeadlock);
      break;
    case StatusCode::kConstraintViolation:
      (void)gtm_->RequestAbort(txn_);
      Finish(false, AbortCause::kConstraint);
      break;
    case StatusCode::kAborted:
      Finish(false, AbortCause::kOther);
      break;
    default:
      (void)gtm_->RequestAbort(txn_);
      Finish(false, AbortCause::kOther);
      break;
  }
  pump_();
}

void FaultTolerantGtmSession::OnGranted() {
  if (finished_ || granted_) return;
  ProceedAfterGrant();
}

void FaultTolerantGtmSession::OnSystemAbort(AbortCause cause) {
  if (finished_) return;
  Finish(false, cause);
}

void FaultTolerantGtmSession::ProceedAfterGrant() {
  if (phase_ != Phase::kInvoke) return;
  granted_ = true;
  phase_ = Phase::kWorking;
  stub_.Cancel();  // A late kWaiting reply must not re-park us.
  sim_->After(plan_.base.work_time, [this] { SendCommit(); });
}

void FaultTolerantGtmSession::SendCommit() {
  if (finished_) return;
  phase_ = Phase::kCommit;
  if (commit_seq_ == 0) commit_seq_ = next_seq_++;
  const obs::TraceContext req = obs::ChildOf(ctx_);
  {
    obs::SpanScope span(req);
    RecordClient(gtm::TraceEventKind::kClientSend, "commit");
  }
  stub_.Send(
      /*execute=*/[gtm = gtm_, pump = pump_, txn = txn_, seq = commit_seq_,
                   req] {
        obs::SpanScope span(req);
        const Status s = gtm->CommitOnce(txn, seq);
        pump();  // The commit releases admissions for other waiters.
        return s;
      },
      /*on_reply=*/[this](const Status& s) { OnCommitReply(s); },
      /*on_exhausted=*/[this] { OnExhausted(); });
}

void FaultTolerantGtmSession::OnCommitReply(const Status& s) {
  if (finished_ || phase_ != Phase::kCommit) return;
  if (s.ok()) {
    Finish(true, AbortCause::kNone);
  } else if (s.code() == StatusCode::kFailedPrecondition) {
    // The transaction was no longer committable (e.g. system-aborted while
    // the request was in flight).
    Finish(false, AbortCause::kOther);
  } else {
    Finish(false, AbortCause::kConstraint);
  }
  pump_();
}

void FaultTolerantGtmSession::OnExhausted() {
  if (finished_) return;
  if (plan_.mode == FtMode::kAbortOnLoss || degrades_ >= plan_.max_degrades) {
    GiveUp();
    return;
  }
  ++degrades_;
  ++stats_.degraded_sleeps;
  stats_.disconnected = true;
  obs::SpanScope span(obs::ChildOf(ctx_));
  RecordClient(gtm::TraceEventKind::kClientDegrade,
               StrFormat("episode=%d", degrades_));
  // The client is effectively offline; the middleware's inactivity oracle
  // Ξ (Alg 8) parks it rather than aborting. Modeling note: we invoke
  // Sleep directly — a server-side decision needs no channel crossing.
  Result<gtm::TxnState> st = gtm_->StateOf(txn_);
  if (st.ok() && (st.value() == gtm::TxnState::kActive ||
                  st.value() == gtm::TxnState::kWaiting)) {
    const Status s = gtm_->Sleep(txn_);
    if (!s.ok() && s.code() == StatusCode::kAborted) {
      // Sleeping disabled (ablation): the outage killed the transaction.
      Finish(false, AbortCause::kChannelLoss);
      pump_();
      return;
    }
    pump_();  // Parking a holder can admit waiters.
  }
  sim_->After(plan_.reconnect_delay, [this] { Reconnect(); });
}

void FaultTolerantGtmSession::Reconnect() {
  if (finished_) return;
  obs::SpanScope reconnect_span(obs::ChildOf(ctx_));
  RecordClient(gtm::TraceEventKind::kClientReconnect, "");
  Result<gtm::TxnState> st = gtm_->StateOf(txn_);
  if (!st.ok() || st.value() != gtm::TxnState::kSleeping) {
    // Not parked (e.g. the lost request had already committed or aborted
    // us): resend the pending request and learn the outcome from the
    // reply cache.
    ResendPending();
    return;
  }
  const uint64_t awake_seq = next_seq_++;
  const obs::TraceContext req = obs::ChildOf(ctx_);
  {
    obs::SpanScope span(req);
    RecordClient(gtm::TraceEventKind::kClientSend, "awake");
  }
  stub_.Send(
      /*execute=*/[gtm = gtm_, pump = pump_, txn = txn_, awake_seq, req] {
        obs::SpanScope span(req);
        const Status s = gtm->AwakeOnce(txn, awake_seq);
        pump();
        return s;
      },
      /*on_reply=*/[this](const Status& s) {
        if (finished_) return;
        if (s.ok() || s.code() == StatusCode::kFailedPrecondition) {
          // Awake succeeded (or the transaction was no longer sleeping —
          // e.g. a duplicate awake already landed); push the pending
          // request through.
          ResendPending();
          return;
        }
        Finish(false, s.code() == StatusCode::kAborted
                          ? AbortCause::kAwakeConflict
                          : AbortCause::kOther);
        pump_();
      },
      /*on_exhausted=*/[this] { OnExhausted(); });
}

void FaultTolerantGtmSession::ResendPending() {
  switch (phase_) {
    case Phase::kInvoke:
      SendInvoke();
      return;
    case Phase::kWorking:
      // The outage hit during user work; nothing is pending with the
      // middleware, so just let the work timer (already scheduled) fire.
      return;
    case Phase::kCommit:
      SendCommit();
      return;
    case Phase::kDone:
      return;
  }
}

void FaultTolerantGtmSession::GiveUp() {
  // Before declaring the transaction lost, reconcile with the server-side
  // truth: a commit may have applied even though every reply drowned.
  obs::SpanScope span(obs::ChildOf(ctx_));
  Result<gtm::TxnState> st = gtm_->StateOf(txn_);
  if (st.ok() && st.value() == gtm::TxnState::kCommitted) {
    Finish(true, AbortCause::kNone);
    pump_();
    return;
  }
  if (st.ok() && gtm::IsLive(st.value())) {
    (void)gtm_->RequestAbort(txn_);
  }
  Finish(false, AbortCause::kChannelLoss);
  pump_();
}

void FaultTolerantGtmSession::Finish(bool committed, AbortCause cause) {
  if (finished_) return;
  finished_ = true;
  phase_ = Phase::kDone;
  stub_.Cancel();
  stats_.finish = sim_->Now();
  stats_.committed = committed;
  stats_.cause = cause;
  stats_.retries = stub_.retries();
  done_(stats_);
}

}  // namespace preserial::mobile
