#include "workload/gtm_experiment.h"

#include <gtest/gtest.h>

namespace preserial::workload {
namespace {

GtmExperimentSpec SmallSpec() {
  GtmExperimentSpec spec;
  spec.num_txns = 200;
  spec.num_objects = 5;
  spec.alpha = 0.7;
  spec.beta = 0.05;
  spec.interarrival = 0.5;
  spec.work_time = 2.0;
  spec.disconnect_mean = 10.0;
  spec.seed = 7;
  return spec;
}

// 100 bookings chase 30 seats of one object under the CHECK constraint.
GtmExperimentSpec ThirtySeatsSpec() {
  GtmExperimentSpec spec = SmallSpec();
  spec.num_txns = 100;
  spec.num_objects = 1;
  spec.alpha = 1.0;
  spec.beta = 0.0;
  spec.initial_quantity = 30;
  spec.add_quantity_constraint = true;
  return spec;
}

// One Sec. VI-B stream on a single GTM and on a one-shard cluster behind
// the router: both run the same client over the same lock domain, so every
// outcome, to the last bit of every latency, must agree.
TEST(GtmExperimentTest, SingleGtmAndOneShardClusterAgree) {
  for (uint64_t seed : {42u, 7u, 1234u}) {
    for (double beta : {0.1, 0.3}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " beta " << beta);
      GtmExperimentSpec spec;
      spec.num_txns = 400;
      spec.num_objects = 5;
      spec.beta = beta;
      spec.seed = seed;
      spec.topology = SingleTopology{};
      const GtmExperimentResult single = RunGtmExperiment(spec);
      spec.topology = ShardedTopology{1, 0.0};
      const GtmExperimentResult one_shard = RunGtmExperiment(spec);

      const RunStats& a = single.run;
      const RunStats& b = one_shard.run;
      EXPECT_EQ(a.committed, b.committed);
      EXPECT_EQ(a.aborts_by_cause, b.aborts_by_cause);
      EXPECT_EQ(a.disconnected, b.disconnected);
      EXPECT_EQ(a.latency_committed.mean(), b.latency_committed.mean());
      EXPECT_EQ(a.latency_committed.Percentile(0.99),
                b.latency_committed.Percentile(0.99));
      EXPECT_EQ(a.latency_all.mean(), b.latency_all.mean());
      EXPECT_EQ(a.latency_all.Percentile(0.99),
                b.latency_all.Percentile(0.99));
      EXPECT_EQ(a.last_finish, b.last_finish);
      EXPECT_EQ(single.snapshot.counters.waits,
                one_shard.snapshot.counters.waits);
      EXPECT_EQ(single.snapshot.counters.sleeps,
                one_shard.snapshot.counters.sleeps);
    }
  }
}

TEST(GtmExperimentTest, RunsToCompletion) {
  const GtmExperimentResult r = RunGtmExperiment(SmallSpec());
  EXPECT_EQ(r.run.started, 200);
  EXPECT_EQ(r.run.committed + r.run.aborted, 200);
  EXPECT_GT(r.run.committed, 150);  // The vast majority commits.
}

TEST(GtmExperimentTest, PureSubtractionWorkloadNeverConflicts) {
  GtmExperimentSpec spec = SmallSpec();
  spec.alpha = 1.0;  // Everything compatible.
  spec.beta = 0.0;
  const GtmExperimentResult r = RunGtmExperiment(spec);
  EXPECT_EQ(r.run.committed, 200);
  EXPECT_EQ(r.snapshot.counters.waits, 0);
  // Every latency is exactly the work time.
  EXPECT_DOUBLE_EQ(r.run.AvgLatency(), spec.work_time);
}

TEST(GtmExperimentTest, AssignmentsIntroduceWaits) {
  GtmExperimentSpec spec = SmallSpec();
  spec.alpha = 0.5;
  spec.beta = 0.0;
  const GtmExperimentResult r = RunGtmExperiment(spec);
  EXPECT_GT(r.snapshot.counters.waits, 0);
  EXPECT_GT(r.run.AvgLatency(), spec.work_time);
}

TEST(GtmExperimentTest, GtmSharesWhereTwoPlSerializes) {
  GtmExperimentSpec spec = SmallSpec();
  spec.alpha = 1.0;  // All subtractions.
  spec.beta = 0.0;
  const GtmExperimentResult gtm = RunGtmExperiment(spec);
  const BaselineResult tpl = RunTwoPlExperiment(spec);
  // Same transactions commit everywhere...
  EXPECT_EQ(gtm.run.committed, 200);
  EXPECT_EQ(tpl.run.committed, 200);
  // ...but 2PL pays lock waits the GTM avoids entirely.
  EXPECT_EQ(gtm.snapshot.counters.waits, 0);
  EXPECT_GT(tpl.two_pl.lock_waits, 0);
  EXPECT_LT(gtm.run.AvgLatency(), tpl.run.AvgLatency());
}

TEST(GtmExperimentTest, DisconnectionsHurtTwoPlMoreThanGtm) {
  GtmExperimentSpec spec = SmallSpec();
  spec.alpha = 1.0;
  spec.beta = 0.3;  // Lots of disconnections.
  spec.disconnect_mean = 20.0;
  const GtmExperimentResult gtm = RunGtmExperiment(spec);
  TwoPlPolicy policy;
  policy.lock_wait_timeout = 15.0;
  policy.idle_timeout = 10.0;  // Preventive aborts of disconnected holders.
  const BaselineResult tpl = RunTwoPlExperiment(spec, policy);
  // GTM: sleepers survive compatible traffic — no aborts at all.
  EXPECT_EQ(gtm.run.aborted, 0);
  // 2PL: disconnected holders get preventively aborted.
  EXPECT_GT(tpl.run.aborted, 0);
}

TEST(GtmExperimentTest, AbortRateGrowsWithBeta) {
  GtmExperimentSpec spec = SmallSpec();
  spec.num_txns = 400;
  spec.alpha = 0.7;
  spec.work_time = 2.0;
  spec.disconnect_mean = 20.0;
  spec.beta = 0.05;
  const double low = RunGtmExperiment(spec).run.AbortPercent();
  spec.beta = 0.6;
  const double high = RunGtmExperiment(spec).run.AbortPercent();
  EXPECT_LT(low, high);
}

TEST(GtmExperimentTest, PerClassLatenciesTagged) {
  GtmExperimentSpec spec = SmallSpec();
  spec.alpha = 0.5;
  spec.beta = 0.0;
  const GtmExperimentResult r = RunGtmExperiment(spec);
  ASSERT_EQ(r.run.latency_by_tag.count(kTagSubtract), 1u);
  ASSERT_EQ(r.run.latency_by_tag.count(kTagAssign), 1u);
  const double sub_mean = r.run.latency_by_tag.at(kTagSubtract).mean();
  const double assign_mean = r.run.latency_by_tag.at(kTagAssign).mean();
  // Subtractions share; assignments serialize against everything: slower.
  EXPECT_LT(sub_mean, assign_mean);
  // Tagged counts add up to all commits.
  EXPECT_EQ(r.run.latency_by_tag.at(kTagSubtract).count() +
                r.run.latency_by_tag.at(kTagAssign).count(),
            r.run.committed);
}

TEST(GtmExperimentTest, NetworkLatencyStretchesLatency) {
  GtmExperimentSpec spec = SmallSpec();
  spec.alpha = 1.0;
  spec.beta = 0.0;
  const double base = RunGtmExperiment(spec).run.AvgLatency();
  spec.network_delay_mean = 0.5;
  const double delayed = RunGtmExperiment(spec).run.AvgLatency();
  // Two exponential(0.5) hops on average.
  EXPECT_NEAR(delayed - base, 1.0, 0.25);
}

TEST(GtmExperimentTest, DeterministicForFixedSeed) {
  const GtmExperimentResult a = RunGtmExperiment(SmallSpec());
  const GtmExperimentResult b = RunGtmExperiment(SmallSpec());
  EXPECT_EQ(a.run.committed, b.run.committed);
  EXPECT_EQ(a.run.aborted, b.run.aborted);
  EXPECT_DOUBLE_EQ(a.run.AvgLatency(), b.run.AvgLatency());
}

TEST(GtmExperimentTest, SeedsVaryOutcomes) {
  GtmExperimentSpec spec = SmallSpec();
  spec.beta = 0.3;
  const GtmExperimentResult a = RunGtmExperiment(spec);
  spec.seed = 8;
  const GtmExperimentResult b = RunGtmExperiment(spec);
  // Different arrival mixes: at least some statistic differs.
  EXPECT_TRUE(a.run.committed != b.run.committed ||
              a.run.AvgLatency() != b.run.AvgLatency());
}

TEST(GtmExperimentTest, OccBaselineCommitsWithoutWaiting) {
  GtmExperimentSpec spec = SmallSpec();
  spec.beta = 0.2;
  const BaselineResult r = RunOccExperiment(spec);
  EXPECT_EQ(r.run.started, 200);
  // No constraint is binding (huge initial quantity): everyone commits,
  // and nobody ever waits (the freeze strategy holds no locks).
  EXPECT_EQ(r.run.committed, 200);
  EXPECT_EQ(r.two_pl.lock_waits, 0);
}

TEST(GtmExperimentTest, OccConstraintAbortsWhenSeatsRunOut) {
  GtmExperimentSpec spec = SmallSpec();
  spec.num_txns = 300;
  spec.num_objects = 2;
  spec.alpha = 1.0;
  spec.beta = 0.0;
  spec.initial_quantity = 50;  // 300 bookings chase 100 seats.
  spec.add_quantity_constraint = true;
  const BaselineResult r = RunOccExperiment(spec);
  EXPECT_EQ(r.run.committed, 100);
  EXPECT_EQ(r.run.aborted, 200);
}

TEST(GtmExperimentTest, GtmConstraintAbortsLateCommitters) {
  const GtmExperimentSpec spec = ThirtySeatsSpec();
  const GtmExperimentResult r = RunGtmExperiment(spec);
  // Exactly the available seats are sold; the rest abort at SST time
  // (paper Sec. VII problem 2).
  EXPECT_EQ(r.run.committed, 30);
  EXPECT_EQ(r.run.aborted, 70);
}

TEST(GtmExperimentTest, ConstraintAwareAdmissionAvoidsLateAborts) {
  const GtmExperimentSpec spec = ThirtySeatsSpec();
  gtm::GtmOptions options;
  options.constraint_aware_admission = true;
  const GtmExperimentResult r = RunGtmExperiment(spec, options);
  // Still only 30 seats, but the refusals happen up front (admission), so
  // nothing reaches the SST just to die there.
  EXPECT_EQ(r.run.committed, 30);
  EXPECT_EQ(r.run.aborted, 70);
}

}  // namespace
}  // namespace preserial::workload
