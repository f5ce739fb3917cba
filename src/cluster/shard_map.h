#ifndef PRESERIAL_CLUSTER_SHARD_MAP_H_
#define PRESERIAL_CLUSTER_SHARD_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gtm/endpoint.h"

namespace preserial::cluster {

// Index of a shard within a GtmCluster.
using ShardId = size_t;

// Maps an ObjectId to its owning shard. Implementations must be pure
// functions of (id, num_shards): every router, coordinator and recovery
// pass must agree on ownership.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual ShardId ShardOf(const gtm::ObjectId& id,
                          size_t num_shards) const = 0;
  virtual const char* name() const = 0;
};

// FNV-1a hash of the full ObjectId, modulo shard count. The default:
// spreads any key population evenly and needs no configuration.
class HashPartitioner : public Partitioner {
 public:
  ShardId ShardOf(const gtm::ObjectId& id, size_t num_shards) const override;
  const char* name() const override { return "hash"; }

  // Exposed for tests and for callers that need stable placement numbers.
  static uint64_t Fnv1a(const gtm::ObjectId& id);
};

// Splits the (sorted) ObjectId space into contiguous lexicographic ranges:
// shard i owns ids with split_points[i-1] <= id < split_points[i]. Useful
// when co-locating related objects ("hotels/..." together) matters more
// than balance. `split_points` must be sorted and have num_shards - 1
// entries; fewer entries leave the tail ranges on the last listed shard.
class RangePartitioner : public Partitioner {
 public:
  explicit RangePartitioner(std::vector<std::string> split_points);

  ShardId ShardOf(const gtm::ObjectId& id, size_t num_shards) const override;
  const char* name() const override { return "range"; }

 private:
  std::vector<std::string> split_points_;
};

// A shard count bound to a partitioner: the single source of ownership
// truth shared by the router, coordinator and workload builders.
class ShardMap {
 public:
  // Defaults to hash partitioning when `partitioner` is null.
  ShardMap(size_t num_shards, std::unique_ptr<Partitioner> partitioner = {});

  size_t num_shards() const { return num_shards_; }
  ShardId ShardOf(const gtm::ObjectId& id) const {
    return partitioner_->ShardOf(id, num_shards_);
  }

 private:
  size_t num_shards_;
  std::unique_ptr<Partitioner> partitioner_;
};

}  // namespace preserial::cluster

#endif  // PRESERIAL_CLUSTER_SHARD_MAP_H_
