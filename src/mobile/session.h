#ifndef PRESERIAL_MOBILE_SESSION_H_
#define PRESERIAL_MOBILE_SESSION_H_

#include <functional>
#include <string>

#include "common/clock.h"
#include "common/ids.h"
#include "gtm/gtm.h"
#include "gtm/trace.h"
#include "mobile/client.h"
#include "mobile/disconnect_model.h"
#include "obs/trace_context.h"
#include "sim/simulator.h"

namespace preserial::mobile {

// Why a session ended.
enum class AbortCause {
  kNone,             // Committed.
  kDeadlock,         // Engine/GTM refused a wait that would cycle.
  kAwakeConflict,    // GTM Algorithm 9: incompatible work during sleep.
  kConstraint,       // SST / admission constraint failure.
  kLockWaitTimeout,  // Gave up waiting for a lock (2PL baseline).
  kDisconnectTimeout,// System aborted a disconnected holder (2PL baseline).
  kChannelLoss,      // Gave up on an unresponsive channel (retry budget).
  kOther,
};

const char* AbortCauseName(AbortCause c);

// Outcome record handed to the completion callback.
struct SessionStats {
  TxnId txn = kInvalidTxnId;
  TimePoint arrival = 0;
  TimePoint finish = 0;
  bool committed = false;
  bool disconnected = false;  // The plan included a disconnection.
  AbortCause cause = AbortCause::kNone;
  int tag = 0;  // Caller-defined class label (e.g. subtract vs assign).
  // Shard that raised the decisive outcome (cluster runs); -1 for
  // single-instance runs. For multi-step plans the failing step's shard
  // wins over the plan-level default.
  int shard = -1;
  // Fault-tolerant transport only: request attempts beyond the first, and
  // degrade-to-Sleep episodes after an exhausted retry budget.
  int64_t retries = 0;
  int64_t degraded_sleeps = 0;

  Duration Latency() const { return finish - arrival; }
};

// What one simulated transaction intends to do: a single semantic operation
// on one object member (the shape of the paper's Sec. VI-B workload),
// `work_time` seconds of user activity between grant and commit, and an
// optional mid-execution disconnection. The reliable-transport client runs
// it as a one-step MultiTxnPlan (see OneStepPlan); the fault-tolerant
// session takes it as its FtPlan::base.
struct TxnPlan {
  gtm::ObjectId object;
  semantics::MemberId member = 0;
  semantics::Operation op;
  Duration work_time = 1.0;
  DisconnectPlan disconnect;
  // Wireless-hop delays (sampled from a NetworkModel by the workload
  // builder): paid before the invocation reaches the middleware and before
  // the commit request does.
  Duration invoke_delay = 0;
  Duration commit_delay = 0;
  int tag = 0;    // Copied into SessionStats.tag.
  int shard = -1;  // Owning shard of `object` (cluster runs); -1 otherwise.
};

// Interface the experiment runners use to resume parked GTM clients.
class GtmWaiter {
 public:
  virtual ~GtmWaiter() = default;
  // The queued invocation was admitted.
  virtual void OnGranted() = 0;
  // The system aborted this transaction (e.g. wait-timeout sweep).
  virtual void OnSystemAbort(AbortCause cause) = 0;
};

// Likewise for strict-2PL clients.
class TwoPlWaiter {
 public:
  virtual ~TwoPlWaiter() = default;
  // A blocked lock request of this session was granted; retry the step.
  virtual void OnRunnable() = 0;
};

// How a fault-tolerant session reacts when its retry budget runs out.
enum class FtMode {
  // Park the transaction in the paper's Sleep state (the middleware's
  // inactivity oracle Ξ would do the same to an unresponsive client) and
  // resume after `reconnect_delay` with Awake + a resend of the pending
  // request under its original sequence number.
  kDegradeToSleep,
  // The naive baseline: give up and abort the transaction.
  kAbortOnLoss,
};

// Plan of a fault-tolerant session: the base single-operation transaction
// plus the transport discipline. `base.disconnect` and the base delay
// fields are ignored — the channel supplies all delays and outages here.
struct FtPlan {
  TxnPlan base;
  RetryPolicy retry;
  FtMode mode = FtMode::kDegradeToSleep;
  Duration reconnect_delay = 5.0;  // Offline time per degrade episode.
  int max_degrades = 8;            // Degrade episodes before giving up.
};

// Simulated mobile client whose every Invoke/Commit/Awake crosses a
// LossyChannel through a RequestStub: requests are stamped with
// per-transaction sequence numbers (the GTM's idempotent *Once endpoints
// dedup redeliveries), silent requests retry with backoff, and an
// exhausted budget degrades into Sleep instead of aborting (Algorithms
// 7-10) — unless the plan says kAbortOnLoss.
//
// Begin and the grant notification (OnGranted, forwarded by the runner's
// pump) are modeled reliable: they stand for session establishment and the
// middleware's server-push channel, whose loss is equivalent to a lost
// reply followed by a retry. See DESIGN.md, "Failure model".
class FaultTolerantGtmSession : public GtmWaiter {
 public:
  using DoneFn = std::function<void(const SessionStats&)>;
  using PumpFn = std::function<void()>;

  // `client_trace` as in MultiGtmSession; additionally every logical request
  // gets its own child span, captured by value into the request closure so
  // the server-side execution (and any redelivered duplicate) records
  // under the span of the request that carried it.
  FaultTolerantGtmSession(gtm::GtmEndpoint* gtm, sim::Simulator* simulator,
                          const LossyChannel* channel, Rng* rng, FtPlan plan,
                          PumpFn pump, DoneFn done,
                          gtm::TraceLog* client_trace = nullptr);

  void Start();
  void OnGranted() override;
  void OnSystemAbort(AbortCause cause) override;

  TxnId txn() const { return txn_; }
  bool finished() const { return finished_; }
  const SessionStats& stats() const { return stats_; }
  const obs::TraceContext& trace_context() const { return ctx_; }

 private:
  enum class Phase { kInvoke, kWorking, kCommit, kDone };

  void SendInvoke();
  void OnInvokeReply(const Status& s);
  void ProceedAfterGrant();
  void SendCommit();
  void OnCommitReply(const Status& s);
  // Retry budget exhausted: degrade to Sleep (or abort, kAbortOnLoss).
  void OnExhausted();
  void Reconnect();
  // Re-sends the phase's pending request under its original seq.
  void ResendPending();
  void GiveUp();
  void Finish(bool committed, AbortCause cause);
  void RecordClient(gtm::TraceEventKind kind, std::string detail);

  gtm::GtmEndpoint* gtm_;
  sim::Simulator* sim_;
  FtPlan plan_;
  PumpFn pump_;
  DoneFn done_;
  gtm::TraceLog* client_trace_;
  obs::TraceContext ctx_;  // Root span of this transaction's trace.
  RequestStub stub_;
  TxnId txn_ = kInvalidTxnId;
  SessionStats stats_;
  Phase phase_ = Phase::kInvoke;
  bool started_ = false;  // Guards stats on Begin retries (dead primary).
  bool finished_ = false;
  bool granted_ = false;
  uint64_t next_seq_ = 1;
  uint64_t invoke_seq_ = 0;  // Assigned at first send, reused on resends.
  uint64_t commit_seq_ = 0;
  int degrades_ = 0;
};

}  // namespace preserial::mobile

#endif  // PRESERIAL_MOBILE_SESSION_H_
