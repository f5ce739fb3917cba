// End-to-end sharded workload runs: the sharded experiment's conservation
// equations (clients vs. coordinator vs. per-shard ground truth), shard
// metrics aggregation, the cross-shard knob, and the travel-agency tour
// workload running unmodified on a 4-shard cluster.

#include <gtest/gtest.h>

#include <numeric>

#include "workload/gtm_experiment.h"
#include "workload/travel_agency.h"

namespace preserial::workload {
namespace {

constexpr size_t kShards = 4;

GtmExperimentSpec BaseSpec() {
  GtmExperimentSpec spec;
  spec.num_txns = 600;
  spec.num_objects = 32;
  spec.alpha = 0.8;
  spec.beta = 0.05;
  spec.interarrival = 0.5;
  spec.work_time = 2.0;
  spec.initial_quantity = 1000000;
  spec.seed = 42;
  spec.topology =
      ShardedTopology{.num_shards = kShards, .cross_shard_ratio = 0.25};
  return spec;
}

TEST(ClusterWorkloadTest, ShardedRunConservesAcrossAllLedgers) {
  const GtmExperimentSpec spec = BaseSpec();
  const GtmExperimentResult r = RunGtmExperiment(spec);

  EXPECT_EQ(r.run.started, 600);
  EXPECT_GT(r.run.committed, 0);
  EXPECT_GT(r.cross_shard_planned, 0);
  EXPECT_GT(r.coordinator.commits, 0);

  // Conservation, cluster-wide: every committed subtract session drained
  // one unit, and every coordinator-committed cross-shard transaction
  // drained one more on its second shard.
  EXPECT_EQ(r.quantity_consumed,
            r.run.CommittedWithTag(kTagSubtract) + r.coordinator.commits);

  // The per-shard ground truth sums to the cluster total.
  ASSERT_EQ(r.consumed_by_shard.size(), kShards);
  EXPECT_EQ(std::accumulate(r.consumed_by_shard.begin(),
                            r.consumed_by_shard.end(), int64_t{0}),
            r.quantity_consumed);

  // Branch commits seen by the shards = single-branch fast-path commits
  // (committed globals minus 2PC ones) + two branches per 2PC commit.
  ASSERT_EQ(r.shard_snapshots.size(), kShards);
  int64_t branch_commits = 0;
  for (const auto& snap : r.shard_snapshots) {
    branch_commits += snap.counters.committed;
  }
  EXPECT_EQ(branch_commits, r.router_committed + r.coordinator.commits);
  // The merged snapshot agrees with the per-shard sum.
  EXPECT_EQ(r.snapshot.counters.committed, branch_commits);
  // Clients and router agree on the outcome tally.
  EXPECT_EQ(r.router_committed, r.run.committed);
}

TEST(ClusterWorkloadTest, ZeroCrossShardRatioStaysOnTheFastPath) {
  GtmExperimentSpec spec = BaseSpec();
  std::get<ShardedTopology>(spec.topology).cross_shard_ratio = 0.0;
  const GtmExperimentResult r = RunGtmExperiment(spec);
  EXPECT_EQ(r.cross_shard_planned, 0);
  EXPECT_EQ(r.coordinator.commits, 0);
  EXPECT_EQ(r.coordinator.aborts, 0);
  EXPECT_GT(r.run.committed, 0);
  EXPECT_EQ(r.quantity_consumed, r.run.CommittedWithTag(kTagSubtract));
}

TEST(ClusterWorkloadTest, ShardedRunIsDeterministicUnderASeed) {
  const GtmExperimentSpec spec = BaseSpec();
  const GtmExperimentResult a = RunGtmExperiment(spec);
  const GtmExperimentResult b = RunGtmExperiment(spec);
  EXPECT_EQ(a.run.committed, b.run.committed);
  EXPECT_EQ(a.run.aborted, b.run.aborted);
  EXPECT_EQ(a.quantity_consumed, b.quantity_consumed);
  EXPECT_EQ(a.cross_shard_planned, b.cross_shard_planned);
  EXPECT_EQ(a.coordinator.commits, b.coordinator.commits);
  EXPECT_EQ(a.consumed_by_shard, b.consumed_by_shard);
}

TEST(ClusterWorkloadTest, RunStatsBreaksAbortsDownByShard) {
  GtmExperimentSpec spec = BaseSpec();
  spec.beta = 0.3;  // Plenty of disconnections -> awake aborts.
  const GtmExperimentResult r = RunGtmExperiment(spec);
  ASSERT_GT(r.run.aborted, 0);
  // Every abort is attributed to a (tag, shard) pair with a real shard id,
  // and the breakdown sums back to the per-tag totals.
  int64_t total = 0;
  for (const auto& [key, count] : r.run.aborted_by_tag_shard) {
    EXPECT_GE(key.second, 0);
    EXPECT_LT(key.second, static_cast<int>(kShards));
    total += count;
  }
  int64_t by_tag = 0;
  for (const auto& [tag, count] : r.run.aborted_by_tag) by_tag += count;
  EXPECT_EQ(total, by_tag);
  EXPECT_EQ(total, r.run.aborted);
}

TEST(ClusterWorkloadTest, TourWorkloadRunsUnmodifiedOnFourShards) {
  TourWorkloadSpec spec;
  spec.num_tours = 150;
  spec.beta = 0.1;
  spec.num_shards = 4;
  spec.seed = 7;
  const GtmExperimentResult r = RunGtmTourExperiment(spec);
  EXPECT_EQ(r.run.started, 150);
  EXPECT_GT(r.run.committed, 0);
  // Tours touch flights + hotels + museums + cars: with hash partitioning
  // over 4 shards, essentially every tour is cross-shard.
  EXPECT_GT(r.coordinator.commits, 0);
  EXPECT_LE(r.coordinator.commits, r.run.committed);
}

}  // namespace
}  // namespace preserial::workload
