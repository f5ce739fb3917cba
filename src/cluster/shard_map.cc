#include "cluster/shard_map.h"

#include "common/logging.h"

namespace preserial::cluster {

ShardMap::ShardMap(size_t num_shards) : num_shards_(num_shards) {
  PRESERIAL_CHECK(num_shards_ > 0) << "a cluster needs at least one shard";
}

uint64_t ShardMap::Fnv1a(const gtm::ObjectId& id) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : id) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace preserial::cluster
