// The oracle catches real bugs, not just crashes: for every seeded rule
// mutation (gtm::GtmMutation) the explorer must find at least one schedule
// the checker rejects, shrink it to a minimal pinned-choice
// counterexample, and that counterexample must replay to the same failure
// — including after a save/load round-trip through the seed file format.

#include <string>

#include <gtest/gtest.h>

#include "check/explorer.h"
#include "check/seed.h"
#include "gtm/policies.h"

namespace preserial::check {
namespace {

bool ReportMentions(const std::string& report, const std::string& rule) {
  return report.find(rule) != std::string::npos;
}

// Explores schedules under `mutation` until the checker flags one, then
// validates the whole counterexample pipeline.
void ExpectMutantCaught(gtm::GtmMutation mutation, const std::string& rule,
                        uint64_t base_seed, size_t schedules,
                        size_t steps = 48) {
  ScheduleSeed base;
  base.scenario = ScenarioKind::kSingleNode;
  base.mutation = mutation;
  base.seed = base_seed;
  base.steps = steps;

  ScheduleExplorer explorer(base);
  const ExplorationResult r = explorer.ExploreRandom(schedules);
  ASSERT_GT(r.failures, 0u) << "mutation " << MutationName(mutation)
                            << " survived " << r.schedules << " schedules";
  ASSERT_TRUE(r.first_failure.has_value());
  EXPECT_TRUE(ReportMentions(r.first_failure_report, rule))
      << r.first_failure_report;

  // The shrunk counterexample is pinned (non-empty choices) and still
  // fails, on the rule the mutation breaks.
  const ScheduleSeed& shrunk = *r.first_failure;
  ASSERT_FALSE(shrunk.choices.empty());
  const ScheduleOutcome replay = RunSchedule(shrunk);
  ASSERT_FALSE(replay.ok())
      << "shrunk counterexample no longer fails: "
      << FormatScheduleSeed(shrunk);
  EXPECT_TRUE(ReportMentions(replay.Describe(), rule)) << replay.Describe();

  // Round-trip through the on-disk format replays identically.
  Result<ScheduleSeed> parsed = ParseScheduleSeed(FormatScheduleSeed(shrunk));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().choices, shrunk.choices);
  EXPECT_EQ(parsed.value().mutation, shrunk.mutation);
  const ScheduleOutcome reparsed = RunSchedule(parsed.value());
  EXPECT_FALSE(reparsed.ok());

  // Sanity: the healthy GTM passes the exact same schedule — the checker
  // is reacting to the mutation, not to the schedule shape.
  ScheduleSeed healthy = shrunk;
  healthy.mutation = gtm::GtmMutation::kNone;
  const ScheduleOutcome clean = RunSchedule(healthy);
  EXPECT_TRUE(clean.ok()) << clean.Describe();
}

TEST(MutantGtmTest, SkippedAwakeStalenessCheckIsCaught) {
  // Algorithm 9's staleness test removed: sleepers wake over incompatible
  // commits newer than their sleep point.
  ExpectMutantCaught(gtm::GtmMutation::kSkipAwakeStalenessCheck,
                     "algorithm9", /*base_seed=*/1, /*schedules=*/500);
}

TEST(MutantGtmTest, CommitSummaryStampedAtBeginIsCaught) {
  // X_committed summary slots stamped with the committer's begin time
  // instead of X_tc: a sleeper wakes over an incompatible commit by a
  // transaction that began before the sleep.
  ExpectMutantCaught(gtm::GtmMutation::kStampCommitSummaryAtBegin,
                     "algorithm9", /*base_seed=*/1, /*schedules=*/500);
}

TEST(MutantGtmTest, AdmittingAssignWithAddSubIsCaught) {
  // Table I compatibility broken: assignments admitted concurrently with
  // in-flight add/sub holders — a Definition 1 violation.
  ExpectMutantCaught(gtm::GtmMutation::kAdmitAssignWithAddSub,
                     "definition1", /*base_seed=*/1, /*schedules=*/300);
}

TEST(MutantGtmTest, AddSubReconciledAsLastWriteIsCaught) {
  // Eq. 1 replaced by last-writer-wins: concurrent subtractions lose
  // updates, so no serial order reproduces the installed state.
  ExpectMutantCaught(gtm::GtmMutation::kReconcileAddSubLastWrite,
                     "reconciliation", /*base_seed=*/1, /*schedules=*/300);
}

TEST(MutantGtmTest, MulDivReconciledAsAddSubIsCaught) {
  // Eq. 2 replaced by eq. 1 for mul/div: the bug only shows when two
  // multiplicative transactions commit concurrently on one cell, so this
  // mutant needs longer schedules and a bigger pool than the others.
  ExpectMutantCaught(gtm::GtmMutation::kReconcileMulDivAsAddSub,
                     "reconciliation", /*base_seed=*/100, /*schedules=*/200,
                     /*steps=*/60);
}

}  // namespace
}  // namespace preserial::check
