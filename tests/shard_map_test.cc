#include "cluster/shard_map.h"

#include <gtest/gtest.h>

#include <map>

#include "common/strings.h"

namespace preserial::cluster {
namespace {

TEST(ShardMapTest, DeterministicAndInRange) {
  for (size_t shards : {1u, 2u, 5u, 16u}) {
    ShardMap map(shards);
    for (int i = 0; i < 200; ++i) {
      const gtm::ObjectId id = StrFormat("resources/%d", i);
      const ShardId s = map.ShardOf(id);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, map.ShardOf(id));  // Stable across calls.
    }
  }
}

TEST(ShardMapTest, SingleShardMapsEverythingToZero) {
  ShardMap map(1);
  EXPECT_EQ(map.ShardOf("anything"), 0u);
  EXPECT_EQ(map.ShardOf(""), 0u);
}

TEST(ShardMapTest, SpreadsKeysAcrossShards) {
  ShardMap map(8);
  std::map<ShardId, int> histogram;
  for (int i = 0; i < 1000; ++i) {
    ++histogram[map.ShardOf(StrFormat("obj/%d", i))];
  }
  // Every shard owns something, and none owns a wildly outsized share.
  EXPECT_EQ(histogram.size(), 8u);
  for (const auto& [shard, count] : histogram) {
    EXPECT_GT(count, 1000 / 8 / 4) << "shard " << shard;
    EXPECT_LT(count, 1000 / 8 * 4) << "shard " << shard;
  }
}

TEST(ShardMapTest, Fnv1aKnownVectors) {
  // Reference values of the 64-bit FNV-1a function.
  EXPECT_EQ(ShardMap::Fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(ShardMap::Fnv1a("a"), 12638187200555641996ull);
}

TEST(ShardMapTest, DefaultsToHashPartitioning) {
  ShardMap map(4);
  EXPECT_EQ(map.num_shards(), 4u);
  for (int i = 0; i < 50; ++i) {
    const gtm::ObjectId id = StrFormat("resources/%d", i);
    EXPECT_EQ(map.ShardOf(id), ShardMap::Fnv1a(id) % 4);
  }
}

}  // namespace
}  // namespace preserial::cluster
