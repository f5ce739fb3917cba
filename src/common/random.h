#ifndef PRESERIAL_COMMON_RANDOM_H_
#define PRESERIAL_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace preserial {

// Deterministic, seedable PRNG (xoshiro256**). All randomized components in
// the library take an explicit Rng so experiments are reproducible; nothing
// reads global entropy.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Raw 64 uniformly distributed bits.
  uint64_t Next();

  // Uniform integer in [0, bound) using Lemire's rejection-free multiply.
  // bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Exponentially distributed variate with the given mean (> 0).
  double NextExponential(double mean);

  // Fisher-Yates shuffle of [0, n) as an index permutation.
  std::vector<size_t> Permutation(size_t n);

 private:
  uint64_t s_[4];
};

}  // namespace preserial

#endif  // PRESERIAL_COMMON_RANDOM_H_
