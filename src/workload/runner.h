#ifndef PRESERIAL_WORKLOAD_RUNNER_H_
#define PRESERIAL_WORKLOAD_RUNNER_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "gtm/gtm.h"
#include "gtm/trace.h"
#include "mobile/multi_session.h"
#include "mobile/session.h"
#include "obs/watchdog.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "txn/txn_manager.h"

namespace preserial::workload {

// Aggregated outcome of one simulated experiment run.
struct RunStats {
  int64_t started = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  std::map<mobile::AbortCause, int64_t> aborts_by_cause;
  Histogram latency_committed;  // Arrival -> finish, committed txns.
  Histogram latency_all;
  // Per-class breakdown, keyed by the caller-defined plan tag.
  std::map<int, Histogram> latency_by_tag;  // Committed only.
  std::map<int, int64_t> aborted_by_tag;
  // Aborts keyed by (tag, shard that raised the abort); shard is -1 for
  // single-instance runs, so this degenerates to aborted_by_tag there.
  std::map<std::pair<int, int>, int64_t> aborted_by_tag_shard;
  int64_t disconnected = 0;          // Sessions whose plan disconnected.
  int64_t disconnected_aborted = 0;  // ... and ended aborted.
  // Fault-tolerant transport only (zero otherwise).
  int64_t retries = 0;            // Request attempts beyond the first.
  int64_t degraded_to_sleep = 0;  // Degrade-to-Sleep episodes.

  void Record(const mobile::SessionStats& s);

  // Virtual-time span from the first arrival to the last completion.
  TimePoint first_arrival = 0;
  TimePoint last_finish = 0;
  double Makespan() const { return last_finish - first_arrival; }
  // Committed transactions per virtual second.
  double Throughput() const {
    const double span = Makespan();
    return span > 0 ? static_cast<double>(committed) / span : 0.0;
  }

  double AbortPercent() const {
    return started > 0 ? 100.0 * static_cast<double>(aborted) /
                             static_cast<double>(started)
                       : 0.0;
  }
  // Abort percentage among disconnected (sleeping) transactions — the
  // quantity Fig. 2 / Fig. 3 (right) plot.
  double DisconnectedAbortPercent() const {
    return disconnected > 0 ? 100.0 * static_cast<double>(disconnected_aborted) /
                                  static_cast<double>(disconnected)
                            : 0.0;
  }
  double AvgLatency() const { return latency_committed.mean(); }
  // Committed sessions whose plan carried `tag`.
  int64_t CommittedWithTag(int tag) const {
    auto it = latency_by_tag.find(tag);
    return it == latency_by_tag.end() ? 0 : it->second.count();
  }
};

// Drives a population of GTM sessions over a discrete-event simulation:
// forwards admission events, sweeps wait timeouts, aggregates results. The
// simulator, Database and Gtm are owned by the caller (the Gtm should read
// time from simulator->clock()).
class GtmRunner {
 public:
  // `wait_timeout` <= 0 disables the timeout sweep.
  GtmRunner(gtm::GtmEndpoint* gtm, sim::Simulator* simulator,
            Duration wait_timeout = 0);

  GtmRunner(const GtmRunner&) = delete;
  GtmRunner& operator=(const GtmRunner&) = delete;

  sim::Simulator* simulator() { return sim_; }

  // Schedules a session to start at `arrival` (absolute virtual time).
  // Unmeasured sessions (background load) run but stay out of the stats.
  void AddMultiSession(mobile::MultiTxnPlan plan, TimePoint arrival,
                       bool measured = true);
  // Shorthand for a one-step plan (mobile::OneStepPlan).
  void AddSession(mobile::TxnPlan plan, TimePoint arrival,
                  bool measured = true);
  // Fault-tolerant variant: every request crosses `channel` (which must
  // outlive the runner) with retry/backoff and idempotent resends. Returns
  // the session so callers can inspect per-session stats after Run().
  mobile::FaultTolerantGtmSession* AddFaultTolerantSession(
      mobile::FtPlan plan, TimePoint arrival,
      const mobile::LossyChannel* channel, Rng* rng, bool measured = true);

  // Runs the simulation to completion and returns the aggregate.
  const RunStats& Run();

  const RunStats& stats() const { return stats_; }

  // Client-lane trace: every session added to this runner records its
  // kClient* events (send/retry/degrade/reconnect) here. Off until
  // client_trace()->Enable(capacity).
  gtm::TraceLog* client_trace() { return &client_trace_; }
  const gtm::TraceLog* client_trace() const { return &client_trace_; }

  // Polls `dog` against `gtm` every `interval` virtual seconds for as long
  // as the simulation has work left, auto-capturing Explain snapshots when
  // slow-txn/long-sleep thresholds trip. Both must outlive the runner; call
  // once per watched Gtm (each shard of a cluster can have its own).
  void AttachWatchdog(gtm::Gtm* gtm, obs::Watchdog* dog, Duration interval);

  // Delivers pending admission events to the sessions. The runner does this
  // after every session step; call it yourself whenever you drive the Gtm
  // directly (Begin/Invoke/RequestCommit outside a session) so that grants
  // triggered by your calls reach the waiting sessions.
  void DispatchEvents() { Pump(); }

 private:
  struct WatchdogAttachment {
    gtm::Gtm* gtm = nullptr;
    obs::Watchdog* dog = nullptr;
    Duration interval = 0;
  };

  // Owns a new Session(gtm_, sim_, args..., pump, done, client lane),
  // starts it at `arrival` and arms the timeout sweep.
  template <typename Session, typename... Args>
  Session* Schedule(std::vector<std::unique_ptr<Session>>* owned,
                    TimePoint arrival, bool measured, Args&&... args);
  void Pump();
  void SweepTimeouts();
  void PollWatchdog(size_t index);
  // by_txn_ lookup that tolerates late Begins: a fault-tolerant session
  // that arrives while a replica group's primary is dead only gets its
  // TxnId on a retry, after its arrival-time registration already ran.
  mobile::GtmWaiter* Resolve(TxnId txn);
  bool AnySweepableFtSession() const;

  gtm::GtmEndpoint* gtm_;
  sim::Simulator* sim_;
  Duration wait_timeout_;
  std::vector<std::unique_ptr<mobile::MultiGtmSession>> sessions_;
  std::vector<std::unique_ptr<mobile::FaultTolerantGtmSession>> ft_sessions_;
  std::map<TxnId, mobile::GtmWaiter*> by_txn_;
  RunStats stats_;
  gtm::TraceLog client_trace_;
  std::vector<WatchdogAttachment> watchdogs_;
  bool pumping_ = false;
  bool sweep_scheduled_ = false;
};

// The same harness for the strict-2PL baseline engine.
class TwoPlRunner {
 public:
  TwoPlRunner(txn::TwoPhaseLockingEngine* engine, sim::Simulator* simulator);

  TwoPlRunner(const TwoPlRunner&) = delete;
  TwoPlRunner& operator=(const TwoPlRunner&) = delete;

  sim::Simulator* simulator() { return sim_; }

  void AddMultiSession(mobile::MultiTwoPlPlan plan, TimePoint arrival,
                       bool measured = true);
  const RunStats& Run();
  const RunStats& stats() const { return stats_; }

 private:
  void Pump();

  txn::TwoPhaseLockingEngine* engine_;
  sim::Simulator* sim_;
  std::vector<std::unique_ptr<mobile::MultiTwoPlSession>> sessions_;
  std::map<TxnId, mobile::TwoPlWaiter*> by_txn_;
  RunStats stats_;
  bool pumping_ = false;
};

}  // namespace preserial::workload

#endif  // PRESERIAL_WORKLOAD_RUNNER_H_
