#ifndef PRESERIAL_CLUSTER_SHARD_MAP_H_
#define PRESERIAL_CLUSTER_SHARD_MAP_H_

#include <cstddef>
#include <cstdint>

#include "gtm/endpoint.h"

namespace preserial::cluster {

// Index of a shard within a GtmCluster.
using ShardId = size_t;

// A shard count and the placement rule over it: the single source of
// ownership truth shared by the router, coordinator and workload builders.
// An object lives on shard FNV-1a(id) mod num_shards, a pure function of
// (id, num_shards), so every router, coordinator and recovery pass agrees
// on ownership. The hash spreads any key population evenly and needs no
// configuration.
class ShardMap {
 public:
  explicit ShardMap(size_t num_shards);

  size_t num_shards() const { return num_shards_; }
  ShardId ShardOf(const gtm::ObjectId& id) const {
    return static_cast<ShardId>(Fnv1a(id) % num_shards_);
  }

  // 64-bit FNV-1a of the full ObjectId.
  static uint64_t Fnv1a(const gtm::ObjectId& id);

 private:
  size_t num_shards_;
};

}  // namespace preserial::cluster

#endif  // PRESERIAL_CLUSTER_SHARD_MAP_H_
