#include "workload/runner.h"

#include <utility>

namespace preserial::workload {

using mobile::AbortCause;
using mobile::SessionStats;

void RunStats::Record(const SessionStats& s) {
  if (started == 0 || s.arrival < first_arrival) first_arrival = s.arrival;
  if (s.finish > last_finish) last_finish = s.finish;
  ++started;
  latency_all.Add(s.Latency());
  if (s.disconnected) ++disconnected;
  if (s.committed) {
    ++committed;
    latency_committed.Add(s.Latency());
    latency_by_tag[s.tag].Add(s.Latency());
  } else {
    ++aborted;
    ++aborts_by_cause[s.cause];
    ++aborted_by_tag[s.tag];
    ++aborted_by_tag_shard[{s.tag, s.shard}];
    if (s.disconnected) ++disconnected_aborted;
  }
  retries += s.retries;
  degraded_to_sleep += s.degraded_sleeps;
}

// --- GtmRunner ------------------------------------------------------------------

GtmRunner::GtmRunner(gtm::GtmEndpoint* gtm, sim::Simulator* simulator,
                     Duration wait_timeout)
    : gtm_(gtm), sim_(simulator), wait_timeout_(wait_timeout) {}

template <typename Session, typename... Args>
Session* GtmRunner::Schedule(std::vector<std::unique_ptr<Session>>* owned,
                             TimePoint arrival, bool measured,
                             Args&&... args) {
  auto session = std::make_unique<Session>(
      gtm_, sim_, std::forward<Args>(args)..., /*pump=*/[this] { Pump(); },
      /*done=*/[this, measured](const SessionStats& s) {
        if (measured) stats_.Record(s);
      },
      &client_trace_);
  Session* raw = session.get();
  owned->push_back(std::move(session));
  sim_->At(arrival, [this, raw] {
    raw->Start();
    by_txn_[raw->txn()] = raw;
  });
  if (wait_timeout_ > 0 && !sweep_scheduled_) {
    sweep_scheduled_ = true;
    sim_->After(wait_timeout_ / 2, [this] { SweepTimeouts(); });
  }
  return raw;
}

void GtmRunner::AddMultiSession(mobile::MultiTxnPlan plan, TimePoint arrival,
                                bool measured) {
  Schedule(&sessions_, arrival, measured, std::move(plan));
}

void GtmRunner::AddSession(mobile::TxnPlan plan, TimePoint arrival,
                           bool measured) {
  AddMultiSession(mobile::OneStepPlan(std::move(plan)), arrival, measured);
}

mobile::FaultTolerantGtmSession* GtmRunner::AddFaultTolerantSession(
    mobile::FtPlan plan, TimePoint arrival, const mobile::LossyChannel* channel,
    Rng* rng, bool measured) {
  return Schedule(&ft_sessions_, arrival, measured, channel, rng,
                  std::move(plan));
}

mobile::GtmWaiter* GtmRunner::Resolve(TxnId txn) {
  if (txn == kInvalidTxnId) return nullptr;
  auto it = by_txn_.find(txn);
  if (it != by_txn_.end()) return it->second;
  // A session whose Begin was refused at arrival (dead primary) registered
  // under kInvalidTxnId; bind it now that its retry succeeded.
  for (const auto& s : ft_sessions_) {
    if (s->txn() == txn && !s->finished()) {
      by_txn_[txn] = s.get();
      return s.get();
    }
  }
  return nullptr;
}

// True if some live session is parked in a server-side wait — the one
// stuck state only the timeout sweep can finish (a client whose abort was
// swallowed by a dead-primary window leaves its waiters eventless). Other
// unfinished sessions either have their own pending events or are beyond
// the sweep's reach (e.g. their transaction died in an async failover),
// so looping on them would never terminate.
bool GtmRunner::AnySweepableFtSession() const {
  for (const auto& s : ft_sessions_) {
    if (s->finished() || s->txn() == kInvalidTxnId) continue;
    Result<gtm::TxnState> st = gtm_->StateOf(s->txn());
    if (st.ok() && st.value() == gtm::TxnState::kWaiting) return true;
  }
  return false;
}

void GtmRunner::Pump() {
  if (pumping_) return;
  pumping_ = true;
  while (true) {
    std::vector<gtm::GtmEvent> events = gtm_->TakeEvents();
    if (events.empty()) break;
    for (const gtm::GtmEvent& e : events) {
      mobile::GtmWaiter* w = Resolve(e.txn);
      if (w != nullptr) w->OnGranted();
    }
  }
  pumping_ = false;
}

void GtmRunner::SweepTimeouts() {
  for (TxnId victim : gtm_->AbortExpiredWaits(wait_timeout_)) {
    mobile::GtmWaiter* w = Resolve(victim);
    if (w != nullptr) w->OnSystemAbort(AbortCause::kLockWaitTimeout);
  }
  Pump();
  // Keep sweeping while anything can still expire: an idle event queue is
  // not proof of quiescence, because a waiter parked behind an orphaned
  // transaction (its client gave up while the primary was dead, so the
  // abort never landed) has no event of its own — only this sweep can
  // finish it.
  if (!sim_->Idle() || AnySweepableFtSession()) {
    sim_->After(wait_timeout_ / 2, [this] { SweepTimeouts(); });
  } else {
    sweep_scheduled_ = false;
  }
}

void GtmRunner::AttachWatchdog(gtm::Gtm* gtm, obs::Watchdog* dog,
                               Duration interval) {
  watchdogs_.push_back(WatchdogAttachment{gtm, dog, interval});
  const size_t index = watchdogs_.size() - 1;
  sim_->After(interval, [this, index] { PollWatchdog(index); });
}

void GtmRunner::PollWatchdog(size_t index) {
  const WatchdogAttachment& w = watchdogs_[index];
  w.dog->Observe(w.gtm, sim_->Now());
  // Same liveness rule as the timeout sweep: keep polling while the
  // simulation has pending events or a session only the sweep can finish.
  if (!sim_->Idle() || AnySweepableFtSession()) {
    sim_->After(w.interval, [this, index] { PollWatchdog(index); });
  }
}

const RunStats& GtmRunner::Run() {
  sim_->Run();
  Pump();
  return stats_;
}

// --- TwoPlRunner ----------------------------------------------------------------

TwoPlRunner::TwoPlRunner(txn::TwoPhaseLockingEngine* engine,
                         sim::Simulator* simulator)
    : engine_(engine), sim_(simulator) {}

void TwoPlRunner::AddMultiSession(mobile::MultiTwoPlPlan plan,
                                  TimePoint arrival, bool measured) {
  auto session = std::make_unique<mobile::MultiTwoPlSession>(
      engine_, sim_, std::move(plan), /*pump=*/[this] { Pump(); },
      /*done=*/[this, measured](const SessionStats& s) {
        if (measured) stats_.Record(s);
      });
  mobile::MultiTwoPlSession* raw = session.get();
  sessions_.push_back(std::move(session));
  sim_->At(arrival, [this, raw] {
    raw->Start();
    by_txn_[raw->txn()] = raw;
  });
}

void TwoPlRunner::Pump() {
  if (pumping_) return;
  pumping_ = true;
  while (true) {
    std::vector<TxnId> runnable = engine_->TakeRunnable();
    if (runnable.empty()) break;
    for (TxnId t : runnable) {
      auto it = by_txn_.find(t);
      if (it != by_txn_.end()) it->second->OnRunnable();
    }
  }
  pumping_ = false;
}

const RunStats& TwoPlRunner::Run() {
  sim_->Run();
  Pump();
  return stats_;
}

}  // namespace preserial::workload
