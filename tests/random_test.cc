#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace preserial {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversSmallRangeUniformly) {
  Rng rng(99);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.NextBounded(kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.08);
  }
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All seven values hit in 1000 draws.
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    const double d = rng.NextExponential(2.5);
    ASSERT_GE(d, 0.0);
    sum += d;
  }
  EXPECT_NEAR(sum / kSamples, 2.5, 0.08);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(23);
  for (size_t n : {0u, 1u, 2u, 17u, 100u}) {
    std::vector<size_t> p = rng.Permutation(n);
    ASSERT_EQ(p.size(), n);
    std::sort(p.begin(), p.end());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(p[i], i);
  }
}

TEST(RngTest, PermutationShuffles) {
  Rng rng(29);
  const std::vector<size_t> p = rng.Permutation(50);
  size_t fixed = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] == i) ++fixed;
  }
  EXPECT_LT(fixed, 10u);  // Expected ~1 fixed point.
}

}  // namespace
}  // namespace preserial
