#ifndef PRESERIAL_SIM_DISTRIBUTIONS_H_
#define PRESERIAL_SIM_DISTRIBUTIONS_H_

#include "common/random.h"

namespace preserial::sim {

// Abstract scalar distribution used by workload and disconnection models.
// All implementations are deterministic given the caller's Rng.
class Distribution {
 public:
  virtual ~Distribution() = default;
  virtual double Sample(Rng& rng) const = 0;
  // Analytic mean; used by models and sanity checks.
  virtual double Mean() const = 0;
};

// Always the same value (a fixed network latency).
class ConstantDist : public Distribution {
 public:
  explicit ConstantDist(double value) : value_(value) {}
  double Sample(Rng&) const override { return value_; }
  double Mean() const override { return value_; }

 private:
  double value_;
};

// Exponential with the given mean (network delays, disconnection
// durations).
class ExponentialDist : public Distribution {
 public:
  explicit ExponentialDist(double mean) : mean_(mean) {}
  double Sample(Rng& rng) const override { return rng.NextExponential(mean_); }
  double Mean() const override { return mean_; }

 private:
  double mean_;
};

}  // namespace preserial::sim

#endif  // PRESERIAL_SIM_DISTRIBUTIONS_H_
