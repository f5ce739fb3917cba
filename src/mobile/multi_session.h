#ifndef PRESERIAL_MOBILE_MULTI_SESSION_H_
#define PRESERIAL_MOBILE_MULTI_SESSION_H_

#include <string>
#include <vector>

#include "mobile/session.h"
#include "txn/txn_manager.h"

namespace preserial::mobile {

// One step of a multi-operation long running transaction (the paper's
// Sec. II package tour: book a flight, think, book a hotel, ...).
struct TourStep {
  gtm::ObjectId object;
  semantics::MemberId member = 0;
  semantics::Operation op;
  // User think time after this step completes, before the next one.
  Duration think_time = 0;
  // Wireless hop before this step's invocation reaches the middleware.
  Duration invoke_delay = 0;
  // Owning shard of `object` (cluster runs); -1 otherwise. A step that
  // fails stamps its shard into SessionStats.shard.
  int shard = -1;
};

struct MultiTxnPlan {
  std::vector<TourStep> steps;
  Duration final_think = 0;  // Between the last step and the commit.
  Duration commit_delay = 0; // Wireless hop before the commit request.
  // Disconnection `disconnect.offset` after arrival; the client sleeps
  // wherever it happens to be (in a wireless hop, queued or thinking).
  DisconnectPlan disconnect;
  int tag = 0;
  int shard = -1;  // Default attribution when no single step failed.
};

// `plan` as a one-step tour: the step pays `invoke_delay`, and the user's
// `work_time` runs between the grant and the commit hop.
MultiTxnPlan OneStepPlan(TxnPlan plan);

// Simulated mobile client running a GTM transaction over a reliable
// transport (FaultTolerantGtmSession is the lossy-link client). Steps
// execute in order; queued invocations park the session until OnGranted.
// A disconnection Sleeps wherever the session is; the user's timeline keeps
// running while away, and whatever falls due meanwhile (a hop's arrival, a
// think's end, the commit) runs at Awake — unless Awake ends the
// transaction (Algorithm 9).
class MultiGtmSession : public GtmWaiter {
 public:
  using DoneFn = std::function<void(const SessionStats&)>;
  using PumpFn = std::function<void()>;

  // `client_trace`, when non-null, receives client-side span events
  // (kClientSend and friends) correlated with the server-side GTM events:
  // one root TraceContext minted at Start, every GTM call below running
  // under a child span so server-side events stitch into the trace.
  MultiGtmSession(gtm::GtmEndpoint* gtm, sim::Simulator* simulator, MultiTxnPlan plan,
                  PumpFn pump, DoneFn done,
                  gtm::TraceLog* client_trace = nullptr);

  void Start();
  void OnGranted() override;
  void OnSystemAbort(AbortCause cause) override;

  TxnId txn() const { return txn_; }
  bool finished() const { return finished_; }
  const obs::TraceContext& trace_context() const { return ctx_; }

 private:
  void RecordClient(gtm::TraceEventKind kind, std::string detail);
  void ScheduleStep();     // Pay the step's wireless hop, then RunStep.
  void RunStep();          // Invoke steps_[current_step_].
  void StepDone();         // Think, then advance.
  void AdvanceOrCommit();
  void DoSleep();
  void DoAwake();
  void DoCommit();
  void Finish(bool committed, AbortCause cause);

  // Timeline work that fell due while asleep, run at Awake.
  enum class Resume { kNone, kAdvance, kRunStep, kCommit };

  gtm::GtmEndpoint* gtm_;
  sim::Simulator* sim_;
  MultiTxnPlan plan_;
  PumpFn pump_;
  DoneFn done_;
  TxnId txn_ = kInvalidTxnId;
  SessionStats stats_;
  size_t current_step_ = 0;
  bool finished_ = false;
  bool waiting_ = false;
  bool sleeping_ = false;
  Resume resume_ = Resume::kNone;
  bool commit_delay_paid_ = false;
  gtm::TraceLog* client_trace_;
  obs::TraceContext ctx_;  // Root span of this transaction's trace.
};

// The strict-2PL counterpart: each step locks its cell (read-for-update +
// write for subtractions, blind write for assignments) and all locks are
// held until the final commit — the paper's long-running-transaction
// pathology in its purest form.
struct TwoPlTourStep {
  std::string table;
  storage::Value key;
  size_t column = 0;
  bool is_subtract = true;
  storage::Value assign_value;
  Duration think_time = 0;
  Duration invoke_delay = 0;  // Wireless hop before the step's first request.
};

struct MultiTwoPlPlan {
  std::vector<TwoPlTourStep> steps;
  Duration final_think = 0;
  Duration commit_delay = 0;  // Wireless hop before the commit request.
  // As in MultiTxnPlan, counted from arrival. Locks stay held while away.
  DisconnectPlan disconnect;
  Duration lock_wait_timeout = kNoTimeout;
  Duration idle_timeout = kNoTimeout;  // System abort of disconnected holders.
  int tag = 0;
};

// Simulated mobile client of the strict-2PL baseline, with the same
// disconnection reading as MultiGtmSession: the link drops
// `disconnect.offset` after arrival, the timeline keeps running, and
// progress that falls due while away (a grant, a think's end, the commit)
// runs at reconnection. Two system policies make the baseline honest: a
// lock-wait timeout (waiters behind a disconnected holder eventually give
// up) and an idle timeout (the system preventively aborts disconnected
// holders), the 2PL pathologies the paper's Sec. II motivates against.
class MultiTwoPlSession : public TwoPlWaiter {
 public:
  using DoneFn = std::function<void(const SessionStats&)>;
  using PumpFn = std::function<void()>;

  MultiTwoPlSession(txn::TwoPhaseLockingEngine* engine,
                    sim::Simulator* simulator, MultiTwoPlPlan plan,
                    PumpFn pump, DoneFn done);

  void Start();
  void OnRunnable() override;

  TxnId txn() const { return txn_; }
  bool finished() const { return finished_; }

 private:
  enum class Phase { kAcquire, kWrite };
  // Progress that fell due while away, replayed on reconnect.
  enum class Resume { kNone, kScheduleStep, kRunStep, kCommit };

  void ScheduleStep();  // Pay the step's wireless hop, then RunStep.
  void RunStep();
  void StepDone();
  void DoCommit();
  void Finish(bool committed, AbortCause cause);
  void ArmWaitTimeout();
  void ScheduleDisconnect();

  txn::TwoPhaseLockingEngine* engine_;
  sim::Simulator* sim_;
  MultiTwoPlPlan plan_;
  PumpFn pump_;
  DoneFn done_;
  TxnId txn_ = kInvalidTxnId;
  SessionStats stats_;
  size_t current_step_ = 0;
  Phase phase_ = Phase::kAcquire;
  storage::Value read_value_;
  bool finished_ = false;
  bool waiting_ = false;
  bool disconnected_now_ = false;
  Resume resume_ = Resume::kNone;
  bool commit_delay_paid_ = false;
  uint64_t wait_epoch_ = 0;
};

}  // namespace preserial::mobile

#endif  // PRESERIAL_MOBILE_MULTI_SESSION_H_
