// Chaos test of the fault-tolerant client<->GTM protocol: a large session
// population over a channel that drops, duplicates, reorders and delays
// messages. The ground truth read back from the database must agree exactly
// with what the clients report — any double-applied commit or lost update
// breaks the conservation equation — and the degrade-to-Sleep discipline
// must out-commit the naive abort-on-loss baseline.

#include <gtest/gtest.h>

#include "check/checker.h"
#include "check/history.h"
#include "workload/gtm_experiment.h"

namespace preserial::workload {
namespace {

GtmExperimentSpec ChaosSpec() {
  GtmExperimentSpec spec;
  spec.num_txns = 1200;
  spec.num_objects = 5;
  spec.alpha = 0.7;
  spec.beta = 0.0;  // The channel supplies the outages here.
  spec.interarrival = 0.5;
  spec.work_time = 2.0;
  spec.initial_quantity = 1000000;
  spec.seed = 20080406;
  spec.history_capacity = 1 << 17;  // Record for the serializability oracle.
  return spec;
}

// The conservation equations prove nothing was double-applied; the oracle
// additionally proves the surviving interleaving is semantically
// serializable (Definition 1, eq. 1-2 reconciliation, Algorithm 9).
void ExpectSerializable(const GtmExperimentResult& r) {
  ASSERT_TRUE(r.histories.at(0).complete);
  const check::CheckReport report = check::CheckHistory(r.histories.at(0));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

ChannelSpec ChaosChannel(bool degrade_to_sleep) {
  ChannelSpec channel;
  channel.loss = 0.25;       // Well above the required 20%.
  channel.duplicate = 0.15;
  channel.reorder = 0.1;
  channel.delay_mean = 0.05;
  channel.request_timeout = 1.0;
  channel.max_attempts = 3;
  channel.reconnect_delay = 5.0;
  channel.degrade_to_sleep = degrade_to_sleep;
  return channel;
}

GtmExperimentResult RunOverChannel(GtmExperimentSpec spec,
                                   const ChannelSpec& channel) {
  spec.channel = channel;
  return RunGtmExperiment(spec);
}

TEST(LossyChaosTest, ThousandSessionsNoDoubleAppliesAndDegradeWins) {
  const GtmExperimentSpec spec = ChaosSpec();
  const GtmExperimentResult degrade =
      RunOverChannel(spec, ChaosChannel(/*degrade_to_sleep=*/true));
  const GtmExperimentResult naive =
      RunOverChannel(spec, ChaosChannel(/*degrade_to_sleep=*/false));

  // Every session ran to completion in both runs.
  EXPECT_EQ(degrade.run.started, 1200);
  EXPECT_EQ(naive.run.started, 1200);

  // The channel actually misbehaved and the dedup layer actually worked.
  EXPECT_GT(degrade.channel.dropped, 0);
  EXPECT_GT(degrade.channel.duplicated, 0);
  EXPECT_GT(degrade.channel.reordered, 0);
  EXPECT_GT(degrade.snapshot.counters.duplicates_suppressed, 0);
  EXPECT_GT(degrade.run.retries, 0);
  EXPECT_GT(degrade.run.degraded_to_sleep, 0);

  // Conservation: the database lost exactly one unit of quantity per
  // committed subtract session — no redelivered commit applied twice (that
  // would consume extra quantity) and no client reported a commit the
  // server lost (that would consume too little).
  for (const GtmExperimentResult* r : {&degrade, &naive}) {
    EXPECT_EQ(r->quantity_consumed, r->run.CommittedWithTag(kTagSubtract));
  }

  // The naive baseline gives up on silent channels; retry + degrade-to-
  // Sleep pushes those same transactions through.
  const auto naive_loss_aborts =
      naive.run.aborts_by_cause.count(mobile::AbortCause::kChannelLoss)
          ? naive.run.aborts_by_cause.at(mobile::AbortCause::kChannelLoss)
          : 0;
  EXPECT_GT(naive_loss_aborts, 0);
  EXPECT_GT(degrade.run.committed, naive.run.committed);

  ExpectSerializable(degrade);
  ExpectSerializable(naive);
}

TEST(LossyChaosTest, ReliableChannelDegradesToPlainRun) {
  GtmExperimentSpec spec = ChaosSpec();
  spec.num_txns = 200;
  ChannelSpec channel = ChaosChannel(true);
  channel.loss = 0;
  channel.duplicate = 0;
  channel.reorder = 0;
  channel.delay_mean = 0;
  const GtmExperimentResult r = RunOverChannel(spec, channel);
  EXPECT_EQ(r.run.started, 200);
  EXPECT_EQ(r.run.committed, 200);
  EXPECT_EQ(r.run.retries, 0);
  EXPECT_EQ(r.run.degraded_to_sleep, 0);
  EXPECT_EQ(r.snapshot.counters.duplicates_suppressed, 0);
  EXPECT_EQ(r.quantity_consumed, r.run.CommittedWithTag(kTagSubtract));
  ExpectSerializable(r);
}

}  // namespace
}  // namespace preserial::workload
