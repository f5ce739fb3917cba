// Systematic schedule exploration: thousands of deterministic schedules —
// random walks and bounded exhaustive enumeration — across the single-node
// GTM, the sharded 2PC cluster (with coordinator crashes and recovery) and
// the replicated group (with primary kill and promotion), every one
// validated by the full serializability checker. The suite explores >= 10k
// schedules by default; PRESERIAL_EXPLORE_BUDGET=<n> multiplies every
// budget (the nightly job runs with a large multiplier).

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/explorer.h"
#include "check/seed.h"
#include "common/random.h"
#include "workload/gtm_experiment.h"

namespace preserial::check {
namespace {

size_t Budget(size_t base) {
  const char* env = std::getenv("PRESERIAL_EXPLORE_BUDGET");
  if (env == nullptr || *env == '\0') return base;
  const unsigned long mult = std::strtoul(env, nullptr, 10);
  return mult > 0 ? base * mult : base;
}

TEST(DecisionSourceTest, RngWalkIsDeterministicAndReplayable) {
  RngDecisionSource a(42), b(42);
  std::vector<uint32_t> seq;  // Effective values, forced (n==1) ones too.
  for (int i = 0; i < 64; ++i) {
    const uint32_t v = a.Choose(1 + (i % 7));
    if (i % 7 == 0) {
      EXPECT_EQ(v, 0u);  // n == 1 is forced...
    }
    seq.push_back(v);
    EXPECT_EQ(b.Choose(1 + (i % 7)), v);
  }
  // ...and forced choices are not recorded: replay alignment must not
  // depend on how many of them a schedule happens to hit.
  std::vector<uint32_t> free;
  for (int i = 0; i < 64; ++i) {
    if (i % 7 != 0) free.push_back(seq[i]);
  }
  EXPECT_EQ(a.recorded(), free);

  // Replaying the recorded vector reproduces the walk exactly; past the
  // end the replay pads with 0 so a truncated vector still drives a full
  // run.
  ReplayDecisionSource replay(a.recorded());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(replay.Choose(1 + (i % 7)), seq[i]);
  }
  EXPECT_EQ(replay.recorded(), free);
  EXPECT_EQ(replay.Choose(5), 0u);
}

TEST(RunScheduleTest, SameSeedSameSchedule) {
  ScheduleSeed seed;
  seed.scenario = ScenarioKind::kSingleNode;
  seed.seed = 12345;
  const ScheduleOutcome a = RunSchedule(seed);
  const ScheduleOutcome b = RunSchedule(seed);
  EXPECT_TRUE(a.ok()) << a.Describe();
  EXPECT_EQ(a.choices, b.choices);
  ASSERT_EQ(a.histories.size(), b.histories.size());
  for (size_t i = 0; i < a.histories.size(); ++i) {
    EXPECT_EQ(a.histories[i].events.size(), b.histories[i].events.size());
    EXPECT_EQ(a.histories[i].final_state, b.histories[i].final_state);
  }

  // Replaying the recorded decision vector pins the same schedule.
  ScheduleSeed pinned = seed;
  pinned.choices = a.choices;
  const ScheduleOutcome c = RunSchedule(pinned);
  EXPECT_EQ(c.choices, a.choices);
  ASSERT_EQ(c.histories.size(), a.histories.size());
  for (size_t i = 0; i < a.histories.size(); ++i) {
    EXPECT_EQ(c.histories[i].final_state, a.histories[i].final_state);
  }
}

TEST(ScheduleExplorerTest, SingleNodeRandomWalks) {
  ScheduleSeed base;
  base.scenario = ScenarioKind::kSingleNode;
  base.seed = 1000;
  ScheduleExplorer explorer(base);
  const ExplorationResult r = explorer.ExploreRandom(Budget(3000));
  EXPECT_EQ(r.schedules, Budget(3000));
  EXPECT_EQ(r.failures, 0u) << r.first_failure_report;
}

TEST(ScheduleExplorerTest, SingleNodeWithConstraintRandomWalks) {
  ScheduleSeed base;
  base.scenario = ScenarioKind::kSingleNode;
  base.with_constraint = true;
  base.seed = 5000;
  ScheduleExplorer explorer(base);
  const ExplorationResult r = explorer.ExploreRandom(Budget(1500));
  EXPECT_EQ(r.schedules, Budget(1500));
  EXPECT_EQ(r.failures, 0u) << r.first_failure_report;
}

TEST(ScheduleExplorerTest, ShardedTwoPcRandomWalks) {
  ScheduleSeed base;
  base.scenario = ScenarioKind::kShardedTwoPc;
  base.seed = 2000;
  ScheduleExplorer explorer(base);
  const ExplorationResult r = explorer.ExploreRandom(Budget(3000));
  EXPECT_EQ(r.schedules, Budget(3000));
  EXPECT_EQ(r.failures, 0u) << r.first_failure_report;
}

TEST(ScheduleExplorerTest, FailoverRandomWalks) {
  ScheduleSeed base;
  base.scenario = ScenarioKind::kFailover;
  base.seed = 3000;
  ScheduleExplorer explorer(base);
  const ExplorationResult r = explorer.ExploreRandom(Budget(2000));
  EXPECT_EQ(r.schedules, Budget(2000));
  EXPECT_EQ(r.failures, 0u) << r.first_failure_report;
}

TEST(ScheduleExplorerTest, ExhaustiveEnumerationSingleNode) {
  // Every decision vector in {0,1,2}^6 — the schedule prefix steers the
  // most divergent part of a run; the tail pads with 0.
  ScheduleSeed base;
  base.scenario = ScenarioKind::kSingleNode;
  ScheduleExplorer explorer(base);
  const ExplorationResult r = explorer.ExploreExhaustive(6, 3);
  EXPECT_EQ(r.schedules, 729u);
  EXPECT_EQ(r.failures, 0u) << r.first_failure_report;
}

TEST(ScheduleExplorerTest, ExhaustiveEnumerationShardedTwoPc) {
  ScheduleSeed base;
  base.scenario = ScenarioKind::kShardedTwoPc;
  ScheduleExplorer explorer(base);
  const ExplorationResult r = explorer.ExploreExhaustive(5, 3);
  EXPECT_EQ(r.schedules, 243u);
  EXPECT_EQ(r.failures, 0u) << r.first_failure_report;
}

// The workload layer surfaces histories too: a Sec. VI-B experiment run
// (simulator-driven sessions, disconnections, waits) records a History
// that the checker certifies — including under a perturbed same-timestamp
// tie-break order, which changes the interleaving but must not change
// serializability.
TEST(WorkloadHistoryTest, ExperimentHistoriesAreSerializable) {
  workload::GtmExperimentSpec spec;
  spec.num_txns = 200;
  spec.num_objects = 3;
  spec.beta = 0.2;
  spec.seed = 99;
  spec.history_capacity = 1 << 16;

  const workload::GtmExperimentResult fifo = workload::RunGtmExperiment(spec);
  ASSERT_TRUE(fifo.histories.at(0).complete);
  const CheckReport fifo_report = CheckHistory(fifo.histories.at(0));
  EXPECT_TRUE(fifo_report.ok()) << fifo_report.ToString();
  EXPECT_GT(fifo_report.committed_txns, 0u);

  // Perturb event ordering among same-timestamp ties.
  auto tie_rng = std::make_shared<Rng>(7);
  spec.tie_breaker = [tie_rng](size_t n) {
    return static_cast<size_t>(tie_rng->NextBounded(n));
  };
  const workload::GtmExperimentResult shuffled =
      workload::RunGtmExperiment(spec);
  ASSERT_TRUE(shuffled.histories.at(0).complete);
  const CheckReport shuffled_report = CheckHistory(shuffled.histories.at(0));
  EXPECT_TRUE(shuffled_report.ok()) << shuffled_report.ToString();
  EXPECT_GT(shuffled_report.committed_txns, 0u);
}

}  // namespace
}  // namespace preserial::check
