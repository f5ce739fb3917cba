#ifndef PRESERIAL_MOBILE_CLIENT_H_
#define PRESERIAL_MOBILE_CLIENT_H_

#include <cstdint>
#include <functional>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "mobile/network.h"
#include "mobile/retry.h"
#include "sim/simulator.h"

namespace preserial::mobile {

// Client end of one logical request travelling over a LossyChannel, with
// the full at-least-once machinery: every attempt puts one message on the
// channel (which may drop, duplicate, reorder or delay it), each delivered
// copy executes the server-side closure (the GTM's *Once endpoints absorb
// redeliveries), the reply crosses the channel again, and the first reply
// to arrive completes the request. A silent attempt retries after
// exponential backoff with jitter until the policy's budget runs out.
//
// One stub serves one session: requests are issued one at a time via
// Send(); a new Send (or Cancel) invalidates the replies of the previous
// logical request, while its in-flight server deliveries still land — late
// duplicates are exactly what the dedup layer must absorb.
class RequestStub {
 public:
  // Runs at the middleware when a request copy arrives.
  using ExecuteFn = std::function<Status()>;
  // Runs at the client when the first reply copy arrives.
  using ReplyFn = std::function<void(const Status&)>;
  // Runs at the client when the retry budget is exhausted.
  using ExhaustedFn = std::function<void()>;

  RequestStub(sim::Simulator* sim, const LossyChannel* channel, Rng* rng,
              RetryPolicy policy)
      : sim_(sim), channel_(channel), rng_(rng), policy_(policy) {}

  RequestStub(const RequestStub&) = delete;
  RequestStub& operator=(const RequestStub&) = delete;

  void Send(ExecuteFn execute, ReplyFn on_reply, ExhaustedFn on_exhausted);
  // Drops the pending request: late replies are ignored, no more retries.
  void Cancel() { ++epoch_; }

  // Observer invoked on every attempt beyond the first of a logical
  // request, with the attempt number (2, 3, ...). Tracing hook: sessions
  // record kClientRetry here.
  void set_on_retry(std::function<void(int)> fn) { on_retry_ = std::move(fn); }

  // Attempts beyond the first, across all requests of this stub.
  int64_t retries() const { return retries_; }

 private:
  void Attempt();

  sim::Simulator* sim_;
  const LossyChannel* channel_;
  Rng* rng_;
  RetryPolicy policy_;
  ExecuteFn execute_;
  ReplyFn on_reply_;
  ExhaustedFn on_exhausted_;
  std::function<void(int)> on_retry_;
  // Guards stale timers and replies: each logical request is an epoch.
  uint64_t epoch_ = 0;
  bool replied_ = false;
  int attempt_ = 0;
  int64_t retries_ = 0;
};

}  // namespace preserial::mobile

#endif  // PRESERIAL_MOBILE_CLIENT_H_
