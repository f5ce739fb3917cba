#include "sim/distributions.h"

#include <gtest/gtest.h>

namespace preserial::sim {
namespace {

TEST(ConstantDistTest, AlwaysSameValue) {
  Rng rng(1);
  ConstantDist d(0.5);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.Sample(rng), 0.5);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.5);
}

TEST(ExponentialDistTest, MeanMatches) {
  Rng rng(3);
  ExponentialDist d(1.5);
  double sum = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sum += d.Sample(rng);
  EXPECT_NEAR(sum / kSamples, 1.5, 0.05);
}

}  // namespace
}  // namespace preserial::sim
