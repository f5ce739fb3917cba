#include "mobile/multi_session.h"

#include <utility>

namespace preserial::mobile {

MultiTxnPlan OneStepPlan(TxnPlan plan) {
  MultiTxnPlan one;
  one.steps.push_back(TourStep{std::move(plan.object), plan.member,
                               std::move(plan.op), /*think_time=*/0,
                               plan.invoke_delay, plan.shard});
  one.final_think = plan.work_time;
  one.commit_delay = plan.commit_delay;
  one.disconnect = plan.disconnect;
  one.tag = plan.tag;
  one.shard = plan.shard;
  return one;
}

// --- MultiGtmSession ------------------------------------------------------------

MultiGtmSession::MultiGtmSession(gtm::GtmEndpoint* gtm, sim::Simulator* simulator,
                                 MultiTxnPlan plan, PumpFn pump, DoneFn done,
                                 gtm::TraceLog* client_trace)
    : gtm_(gtm),
      sim_(simulator),
      plan_(std::move(plan)),
      pump_(std::move(pump)),
      done_(std::move(done)),
      client_trace_(client_trace) {}

void MultiGtmSession::RecordClient(gtm::TraceEventKind kind,
                                   std::string detail) {
  if (client_trace_ == nullptr) return;
  const gtm::ObjectId object = current_step_ < plan_.steps.size()
                                   ? plan_.steps[current_step_].object
                                   : gtm::ObjectId{};
  client_trace_->Record(sim_->Now(), kind, txn_, object, std::move(detail));
}

void MultiGtmSession::Start() {
  stats_.arrival = sim_->Now();
  stats_.disconnected = plan_.disconnect.disconnects;
  stats_.tag = plan_.tag;
  stats_.shard = plan_.shard;
  // One trace per transaction, rooted at the client: every GTM call below
  // runs under a child span, so the server-side events it records stitch
  // into this trace.
  ctx_ = obs::NewRootContext();
  {
    obs::SpanScope span(obs::ChildOf(ctx_));
    txn_ = gtm_->Begin();
  }
  stats_.txn = txn_;
  if (plan_.disconnect.disconnects) {
    sim_->After(plan_.disconnect.offset, [this] { DoSleep(); });
  }
  if (plan_.steps.empty()) {
    DoCommit();
  } else {
    ScheduleStep();
  }
  pump_();
}

void MultiGtmSession::ScheduleStep() {
  const Duration hop = plan_.steps[current_step_].invoke_delay;
  if (hop <= 0) {
    RunStep();
    return;
  }
  sim_->After(hop, [this] {
    RunStep();
    pump_();
  });
}

void MultiGtmSession::RunStep() {
  if (finished_) return;
  if (sleeping_) {
    resume_ = Resume::kRunStep;
    return;
  }
  const TourStep& step = plan_.steps[current_step_];
  obs::SpanScope span(obs::ChildOf(ctx_));
  RecordClient(gtm::TraceEventKind::kClientSend, "invoke");
  const Status s = gtm_->Invoke(txn_, step.object, step.member, step.op);
  switch (s.code()) {
    case StatusCode::kOk:
      StepDone();
      return;
    case StatusCode::kWaiting:
      waiting_ = true;
      return;
    case StatusCode::kDeadlock:
      stats_.shard = step.shard;
      (void)gtm_->RequestAbort(txn_);
      Finish(false, AbortCause::kDeadlock);
      return;
    case StatusCode::kConstraintViolation:
      stats_.shard = step.shard;
      (void)gtm_->RequestAbort(txn_);
      Finish(false, AbortCause::kConstraint);
      return;
    default:
      stats_.shard = step.shard;
      (void)gtm_->RequestAbort(txn_);
      Finish(false, AbortCause::kOther);
      return;
  }
}

void MultiGtmSession::OnGranted() {
  if (finished_ || sleeping_ || !waiting_) return;
  StepDone();
}

void MultiGtmSession::OnSystemAbort(AbortCause cause) {
  if (finished_) return;
  Finish(false, cause);
}

void MultiGtmSession::StepDone() {
  waiting_ = false;
  const Duration think = plan_.steps[current_step_].think_time;
  sim_->After(think, [this] { AdvanceOrCommit(); });
}

void MultiGtmSession::AdvanceOrCommit() {
  if (finished_) return;
  if (sleeping_) {
    resume_ = Resume::kAdvance;
    return;
  }
  ++current_step_;
  if (current_step_ < plan_.steps.size()) {
    ScheduleStep();
    pump_();
    return;
  }
  sim_->After(plan_.final_think, [this] { DoCommit(); });
}

void MultiGtmSession::DoSleep() {
  if (finished_) return;
  obs::SpanScope span(obs::ChildOf(ctx_));
  RecordClient(gtm::TraceEventKind::kClientSend, "sleep");
  const Status s = gtm_->Sleep(txn_);
  if (!s.ok()) {
    // Sleeping disabled (ablation) aborts on disconnection.
    Finish(false, AbortCause::kAwakeConflict);
    pump_();
    return;
  }
  sleeping_ = true;
  sim_->After(plan_.disconnect.duration, [this] { DoAwake(); });
  pump_();
}

void MultiGtmSession::DoAwake() {
  if (finished_) return;
  obs::SpanScope span(obs::ChildOf(ctx_));
  RecordClient(gtm::TraceEventKind::kClientSend, "awake");
  const Status s = gtm_->Awake(txn_);
  if (!s.ok()) {
    Finish(false, s.code() == StatusCode::kAborted
                      ? AbortCause::kAwakeConflict
                      : AbortCause::kOther);
    pump_();
    return;
  }
  sleeping_ = false;
  if (waiting_) {
    // Algorithm 9 case 1 admitted our queued invocation at awake.
    StepDone();
  } else {
    switch (std::exchange(resume_, Resume::kNone)) {
      case Resume::kNone:
        break;
      case Resume::kAdvance:
        AdvanceOrCommit();
        break;
      case Resume::kRunStep:
        RunStep();
        break;
      case Resume::kCommit:
        DoCommit();
        break;
    }
  }
  pump_();
}

void MultiGtmSession::DoCommit() {
  if (finished_) return;
  if (sleeping_) {
    resume_ = Resume::kCommit;
    return;
  }
  if (!commit_delay_paid_ && plan_.commit_delay > 0) {
    commit_delay_paid_ = true;
    sim_->After(plan_.commit_delay, [this] { DoCommit(); });
    return;
  }
  obs::SpanScope span(obs::ChildOf(ctx_));
  RecordClient(gtm::TraceEventKind::kClientSend, "commit");
  const Status s = gtm_->RequestCommit(txn_);
  if (s.ok()) {
    Finish(true, AbortCause::kNone);
  } else {
    Finish(false, AbortCause::kConstraint);
  }
  pump_();
}

void MultiGtmSession::Finish(bool committed, AbortCause cause) {
  if (finished_) return;
  finished_ = true;
  stats_.finish = sim_->Now();
  stats_.committed = committed;
  stats_.cause = cause;
  done_(stats_);
}

// --- MultiTwoPlSession ----------------------------------------------------------

MultiTwoPlSession::MultiTwoPlSession(txn::TwoPhaseLockingEngine* engine,
                                     sim::Simulator* simulator,
                                     MultiTwoPlPlan plan, PumpFn pump,
                                     DoneFn done)
    : engine_(engine),
      sim_(simulator),
      plan_(std::move(plan)),
      pump_(std::move(pump)),
      done_(std::move(done)) {}

void MultiTwoPlSession::Start() {
  stats_.arrival = sim_->Now();
  stats_.disconnected = plan_.disconnect.disconnects;
  stats_.tag = plan_.tag;
  txn_ = engine_->Begin();
  stats_.txn = txn_;
  if (plan_.disconnect.disconnects) ScheduleDisconnect();
  if (plan_.steps.empty()) {
    DoCommit();
  } else {
    ScheduleStep();
  }
  pump_();
}

void MultiTwoPlSession::ScheduleDisconnect() {
  sim_->After(plan_.disconnect.offset, [this] {
    if (finished_) return;
    disconnected_now_ = true;
    // Locks stay held. The system may preventively abort us while away.
    if (plan_.idle_timeout < plan_.disconnect.duration) {
      sim_->After(plan_.idle_timeout, [this] {
        if (finished_) return;
        (void)engine_->Abort(txn_);
        Finish(false, AbortCause::kDisconnectTimeout);
        pump_();
      });
      return;
    }
    sim_->After(plan_.disconnect.duration, [this] {
      if (finished_) return;
      disconnected_now_ = false;
      // Pick up whatever landed while we were away; if nothing did (still
      // parked on a lock, or mid-think with the timer yet to fire), the
      // normal paths resume us.
      switch (std::exchange(resume_, Resume::kNone)) {
        case Resume::kNone:
          break;
        case Resume::kScheduleStep:
          ScheduleStep();
          pump_();
          break;
        case Resume::kRunStep:
          RunStep();
          pump_();
          break;
        case Resume::kCommit:
          DoCommit();
          break;
      }
    });
  });
}

void MultiTwoPlSession::ArmWaitTimeout() {
  waiting_ = true;
  const uint64_t epoch = ++wait_epoch_;
  if (IsNoTimeout(plan_.lock_wait_timeout)) return;
  sim_->After(plan_.lock_wait_timeout, [this, epoch] {
    if (finished_ || !waiting_ || wait_epoch_ != epoch) return;
    (void)engine_->Abort(txn_);
    Finish(false, AbortCause::kLockWaitTimeout);
    pump_();
  });
}

void MultiTwoPlSession::OnRunnable() {
  if (finished_ || !waiting_) return;
  waiting_ = false;
  ++wait_epoch_;
  // Granted while the client is away, the lock is held, but RunStep
  // retries the step only after reconnection.
  RunStep();
}

void MultiTwoPlSession::ScheduleStep() {
  const Duration hop = plan_.steps[current_step_].invoke_delay;
  if (hop <= 0) {
    RunStep();
    return;
  }
  sim_->After(hop, [this] {
    RunStep();
    pump_();
  });
}

void MultiTwoPlSession::RunStep() {
  if (finished_) return;
  if (disconnected_now_) {
    resume_ = Resume::kRunStep;
    return;
  }
  const TwoPlTourStep& step = plan_.steps[current_step_];
  if (phase_ == Phase::kAcquire) {
    if (!step.is_subtract) {
      phase_ = Phase::kWrite;
    } else {
      Result<storage::Value> v =
          engine_->ReadForUpdate(txn_, step.table, step.key, step.column);
      if (!v.ok()) {
        if (v.status().code() == StatusCode::kWaiting) {
          ArmWaitTimeout();
          return;
        }
        (void)engine_->Abort(txn_);
        Finish(false, v.status().code() == StatusCode::kDeadlock
                          ? AbortCause::kDeadlock
                          : AbortCause::kOther);
        return;
      }
      read_value_ = v.value();
      phase_ = Phase::kWrite;
    }
  }
  // Write phase.
  storage::Value target;
  if (step.is_subtract) {
    Result<storage::Value> next =
        storage::Value::Sub(read_value_, storage::Value::Int(1));
    if (!next.ok()) {
      (void)engine_->Abort(txn_);
      Finish(false, AbortCause::kOther);
      return;
    }
    target = std::move(next).value();
  } else {
    target = step.assign_value;
  }
  const Status s =
      engine_->Write(txn_, step.table, step.key, step.column, target);
  if (s.code() == StatusCode::kWaiting) {
    ArmWaitTimeout();
    return;
  }
  if (s.code() == StatusCode::kDeadlock) {
    (void)engine_->Abort(txn_);
    Finish(false, AbortCause::kDeadlock);
    return;
  }
  if (s.code() == StatusCode::kConstraintViolation) {
    (void)engine_->Abort(txn_);
    Finish(false, AbortCause::kConstraint);
    return;
  }
  if (!s.ok()) {
    (void)engine_->Abort(txn_);
    Finish(false, AbortCause::kOther);
    return;
  }
  StepDone();
}

void MultiTwoPlSession::StepDone() {
  const Duration think = plan_.steps[current_step_].think_time;
  sim_->After(think, [this] {
    if (finished_) return;
    ++current_step_;
    phase_ = Phase::kAcquire;
    if (current_step_ < plan_.steps.size()) {
      if (disconnected_now_) {
        resume_ = Resume::kScheduleStep;  // Reconnect resumes the next step.
      } else {
        ScheduleStep();
        pump_();
      }
      return;
    }
    sim_->After(plan_.final_think, [this] { DoCommit(); });
  });
}

void MultiTwoPlSession::DoCommit() {
  if (finished_) return;
  if (disconnected_now_) {
    resume_ = Resume::kCommit;  // Commit once reconnected.
    return;
  }
  if (!commit_delay_paid_ && plan_.commit_delay > 0) {
    commit_delay_paid_ = true;
    sim_->After(plan_.commit_delay, [this] { DoCommit(); });
    return;
  }
  const Status s = engine_->Commit(txn_);
  if (s.ok()) {
    Finish(true, AbortCause::kNone);
  } else {
    (void)engine_->Abort(txn_);
    Finish(false, AbortCause::kOther);
  }
  pump_();
}

void MultiTwoPlSession::Finish(bool committed, AbortCause cause) {
  if (finished_) return;
  finished_ = true;
  stats_.finish = sim_->Now();
  stats_.committed = committed;
  stats_.cause = cause;
  done_(stats_);
}

}  // namespace preserial::mobile
