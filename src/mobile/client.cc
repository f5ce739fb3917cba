#include "mobile/client.h"

namespace preserial::mobile {

void RequestStub::Send(ExecuteFn execute, ReplyFn on_reply,
                       ExhaustedFn on_exhausted) {
  ++epoch_;
  replied_ = false;
  attempt_ = 0;
  execute_ = std::move(execute);
  on_reply_ = std::move(on_reply);
  on_exhausted_ = std::move(on_exhausted);
  Attempt();
}

void RequestStub::Attempt() {
  ++attempt_;
  if (attempt_ > 1) {
    ++retries_;
    if (on_retry_) on_retry_(attempt_);
  }
  const uint64_t epoch = epoch_;
  // Request direction: each surviving copy reaches the middleware and
  // executes there; the reply crosses the channel independently. The
  // execute closure is captured by value so copies still in flight when a
  // new request starts execute the *original* request (late duplicates).
  for (Duration d : channel_->SampleDeliveries(*rng_)) {
    sim_->After(d, [this, epoch, execute = execute_] {
      const Status reply = execute();
      // A dead endpoint (replica primary down, failover in progress) is a
      // request that fell into the void, not a reply: stay silent and let
      // the timeout/backoff path retry until the promoted primary answers.
      if (reply.code() == StatusCode::kUnavailable) return;
      for (Duration r : channel_->SampleDeliveries(*rng_)) {
        sim_->After(r, [this, epoch, reply] {
          if (epoch != epoch_ || replied_) return;
          replied_ = true;
          // Local copy: the callback may Send() a follow-up request, which
          // replaces on_reply_ while it runs.
          const ReplyFn cb = on_reply_;
          cb(reply);
        });
      }
    });
  }
  // Attempt deadline: if no reply landed, back off and try again (or give
  // up once the budget is spent).
  sim_->After(policy_.request_timeout, [this, epoch, attempt = attempt_] {
    if (epoch != epoch_ || replied_ || attempt != attempt_) return;
    if (attempt_ >= policy_.max_attempts) {
      const ExhaustedFn cb = on_exhausted_;
      cb();
      return;
    }
    const Duration backoff = policy_.BackoffBeforeAttempt(attempt_, *rng_);
    sim_->After(backoff, [this, epoch] {
      if (epoch != epoch_ || replied_) return;
      Attempt();
    });
  });
}

}  // namespace preserial::mobile
