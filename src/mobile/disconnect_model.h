#ifndef PRESERIAL_MOBILE_DISCONNECT_MODEL_H_
#define PRESERIAL_MOBILE_DISCONNECT_MODEL_H_

#include <memory>

#include "common/clock.h"
#include "common/random.h"
#include "sim/distributions.h"

namespace preserial::mobile {

// One client's sampled disconnection behaviour for a transaction.
struct DisconnectPlan {
  bool disconnects = false;
  // Time from the transaction's arrival to the moment the link drops. The
  // client may then be in a wireless hop, queued or working; its timeline
  // keeps running while away (see MultiGtmSession).
  Duration offset = 0;
  // How long the client stays away before reconnecting.
  Duration duration = 0;
};

// Bernoulli(β) disconnection model with pluggable offset/duration
// distributions — the paper's mobile-environment assumption that "all
// disconnections take place during the transaction execution".
class DisconnectModel {
 public:
  // `probability` is the paper's β. Offset, counted from arrival, is
  // sampled uniformly over [0, work_span); duration from `duration_dist`.
  DisconnectModel(double probability,
                  std::unique_ptr<sim::Distribution> duration_dist);

  // Convenience: exponential reconnection delay with the given mean.
  static DisconnectModel WithExponentialDuration(double probability,
                                                 double mean_duration);

  DisconnectPlan Sample(Rng& rng, Duration work_span) const;

  double probability() const { return probability_; }
  double mean_duration() const { return duration_dist_->Mean(); }

 private:
  double probability_;
  std::unique_ptr<sim::Distribution> duration_dist_;
};

}  // namespace preserial::mobile

#endif  // PRESERIAL_MOBILE_DISCONNECT_MODEL_H_
