// Chaos tests of replicated-GTM failover. First: a seeded storm of lossy
// fault-tolerant sessions with the primary killed at a randomized point of
// every run (mid-work, mid-retry, between Sleep and Awake) — under sync
// shipping the promotion must preserve every Sleeping transaction, never
// half-apply a commit, and conserve reconciled values exactly. Second: a
// replicated cluster whose shard primaries die between 2PC prepare and
// decision while the coordinator also keeps crashing — recovery drives
// every decision onto promoted primaries and no global transaction may
// end half-committed.

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/checker.h"
#include "check/history.h"
#include "cluster/cluster.h"
#include "cluster/coordinator.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "gtm/txn_state.h"
#include "storage/wal.h"
#include "workload/gtm_experiment.h"

namespace preserial {
namespace {

using gtm::TxnState;
using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

TEST(ReplicaChaosTest, SeededFailoverStormNeverLosesSleepers) {
  constexpr int kRuns = 30;
  constexpr size_t kSessionsPerRun = 20;  // 600 sessions overall.

  Rng meta_rng(0xc4a05u);
  int64_t total_sleeping_at_kill = 0;
  int64_t total_committed = 0;
  int64_t total_degrades = 0;
  for (int run = 0; run < kRuns; ++run) {
    workload::GtmExperimentSpec spec;
    spec.num_txns = kSessionsPerRun;
    spec.num_objects = 3;
    spec.alpha = 0.8;
    spec.beta = 0.0;
    spec.interarrival = 0.5;
    spec.work_time = 2.0;
    spec.seed = meta_rng.Next();
    // Lossy enough that sessions retry, degrade to Sleep and awake later —
    // so the kill lands mid-retry and mid-sleep across the seeds.
    workload::ChannelSpec& channel = spec.channel.emplace();
    channel.loss = 0.3;
    channel.duplicate = 0.1;
    channel.reorder = 0.1;
    channel.delay_mean = 0.05;
    channel.request_timeout = 1.0;
    channel.max_attempts = 3;
    channel.reconnect_delay = 10.0;
    auto& replicated = spec.topology.emplace<workload::ReplicatedTopology>();
    replicated.num_backups = 2;
    replicated.ship.mode = replica::ShipMode::kSync;
    // The ship link is flaky too; sync rides it out.
    replicated.ship.loss = 0.1;
    replicated.fail_at = 1.0 + meta_rng.NextDouble() * 30.0;
    replicated.detect_delay = 0.5 + meta_rng.NextDouble() * 2.0;
    spec.history_capacity = 1 << 16;  // Record for the oracle.

    const workload::GtmExperimentResult r = workload::RunGtmExperiment(spec);
    const workload::FailoverReport& f = r.failover;
    SCOPED_TRACE(StrFormat("run=%d seed=%llu fail_at=%.2f", run,
                           static_cast<unsigned long long>(spec.seed),
                           replicated.fail_at));
    ASSERT_TRUE(f.promotion.has_value());
    const replica::PromotionReport& p = *f.promotion;
    EXPECT_EQ(f.final_epoch, 2u);
    // Sync shipping: the promoted backup had applied the whole log, so the
    // fence truncated nothing and no Sleeping transaction vanished.
    EXPECT_EQ(f.replication_lag_at_kill, 0);
    EXPECT_EQ(p.truncated_records, 0u);
    EXPECT_EQ(p.sleeping_lost, 0);
    EXPECT_EQ(p.sleeping_preserved, p.sleeping_at_failure);
    // Conservation of reconciled values: every subtract the promoted
    // primary reports committed drained exactly one unit — no
    // half-commits, no double-applied redeliveries.
    EXPECT_EQ(r.quantity_consumed, f.server_committed_subtracts);
    // A client only believes a commit the server made durable.
    EXPECT_LE(r.run.CommittedWithTag(workload::kTagSubtract),
              f.server_committed_subtracts);
    // All sessions terminated (nothing silently lost by the promotion).
    EXPECT_EQ(r.run.committed + r.run.aborted,
              static_cast<int64_t>(kSessionsPerRun));
    total_sleeping_at_kill += p.sleeping_at_failure;
    total_committed += r.run.committed;
    total_degrades += r.run.degraded_to_sleep;

    // The promoted primary's surviving timeline must be semantically
    // serializable — failover preserved Definition 1, reconciliation and
    // the Algorithm 9 discipline, not just counters.
    ASSERT_TRUE(r.histories.at(0).complete);
    const check::CheckReport report = check::CheckHistory(r.histories.at(0));
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  // The storm really exercised the interesting states.
  EXPECT_GT(total_sleeping_at_kill, 0);
  EXPECT_GT(total_degrades, 0);
  EXPECT_GT(total_committed, 0);
}

TEST(ReplicaChaosTest, ShardPrimaryDeathDuringTwoPcNeverHalfCommits) {
  constexpr size_t kShards = 2;
  constexpr size_t kObjects = 16;
  constexpr size_t kReplicasPerShard = 2;
  constexpr int kRounds = 120;
  constexpr int64_t kInitialQty = 100000;
  const char kTable[] = "resources";

  ManualClock clock;
  cluster::GtmClusterOptions copts;
  copts.replicas_per_shard = kReplicasPerShard;  // Sync shipping (default).
  cluster::GtmCluster cluster(kShards, &clock, copts);
  Schema schema = Schema::Create(
                      {
                          ColumnDef{"id", ValueType::kInt64, false},
                          ColumnDef{"qty", ValueType::kInt64, false},
                      },
                      0)
                      .value();
  ASSERT_TRUE(cluster.CreateTableAllShards(kTable, std::move(schema)).ok());
  auto object_id = [&](size_t i) { return StrFormat("%s/%zu", kTable, i); };
  for (size_t i = 0; i < kObjects; ++i) {
    const gtm::ObjectId oid = object_id(i);
    const Value key = Value::Int(static_cast<int64_t>(i));
    ASSERT_TRUE(cluster
                    .InsertRow(cluster.ShardOf(oid), kTable,
                               Row({key, Value::Int(kInitialQty)}))
                    .ok());
    ASSERT_TRUE(cluster.RegisterObject(oid, kTable, key, {1}).ok());
  }

  storage::MemoryWalStorage wal;
  auto coordinator =
      std::make_unique<cluster::ClusterCoordinator>(&cluster, &wal);

  // One recorder per shard's replica group: whichever node ends up primary
  // after the kills holds that shard's authoritative timeline.
  std::vector<check::ReplicaHistoryRecorder> recorders(kShards);
  for (size_t s = 0; s < kShards; ++s) recorders[s].Attach(cluster.group(s));

  Rng rng(0x2bc5eed1u);
  std::vector<int64_t> booked(kShards, 0);
  std::vector<size_t> kills(kShards, 0);
  TxnId next_global = 1;
  int failovers = 0, crashes = 0;

  auto book = [&](TxnId* branch_out) {
    const gtm::ObjectId oid = object_id(rng.NextBounded(kObjects));
    const cluster::ShardId shard = cluster.ShardOf(oid);
    const TxnId branch = cluster.endpoint(shard)->Begin();
    Status s = cluster.endpoint(shard)->Invoke(branch, oid, 0,
                                               Operation::Sub(Value::Int(1)));
    PRESERIAL_CHECK(s.ok()) << s.ToString();
    *branch_out = branch;
    return shard;
  };

  for (int round = 0; round < kRounds; ++round) {
    clock.Advance(1.0);
    // Background single-shard traffic.
    if (rng.NextBool(0.6)) {
      TxnId b;
      const cluster::ShardId s = book(&b);
      PRESERIAL_CHECK(cluster.endpoint(s)->RequestCommit(b).ok());
      ++booked[s];
    }

    TxnId b1, b2;
    const cluster::ShardId s1 = book(&b1);
    cluster::ShardId s2;
    TxnId tmp;
    do {
      s2 = book(&tmp);
      if (s2 == s1) {
        PRESERIAL_CHECK(cluster.AbortBranch(s2, tmp).ok());
      }
    } while (s2 == s1);
    b2 = tmp;

    const bool crash = round % 3 == 0;
    if (crash) {
      coordinator->set_crash_point(round % 6 == 0
                                       ? cluster::CrashPoint::kAfterPrepare
                                       : cluster::CrashPoint::kAfterDecision);
    }
    const Status s =
        coordinator->CommitGlobal(next_global++, {{s1, b1}, {s2, b2}});
    if (s.ok()) {
      ++booked[s1];
      ++booked[s2];
      continue;
    }
    ASSERT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    ++crashes;

    // The coordinator died mid-protocol — and so does a participating
    // shard's primary, while its branch is still prepared/in-doubt.
    if (kills[s1] < kReplicasPerShard) {
      cluster.KillShardPrimary(s1);
      Result<replica::PromotionReport> rep = cluster.PromoteShard(s1);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      ++kills[s1];
      ++failovers;
    }

    // A successor coordinator recovers; its decisions land on the promoted
    // primary, which replayed the prepare and still holds the branch.
    coordinator = std::make_unique<cluster::ClusterCoordinator>(&cluster, &wal);
    Result<cluster::ClusterCoordinator::RecoveryOutcome> out =
        coordinator->Recover();
    ASSERT_TRUE(out.ok()) << out.status().ToString();

    const TxnState st1 = cluster.endpoint(s1)->StateOf(b1).value();
    const TxnState st2 = cluster.endpoint(s2)->StateOf(b2).value();
    ASSERT_TRUE(st1 == TxnState::kCommitted || st1 == TxnState::kAborted);
    ASSERT_EQ(st1, st2) << "half-committed global transaction after failover";
    if (st1 == TxnState::kCommitted) {
      ++booked[s1];
      ++booked[s2];
    }
  }

  EXPECT_GT(crashes, 0);
  EXPECT_GT(failovers, 0);

  // Conservation on the promoted primaries' databases.
  for (cluster::ShardId s = 0; s < kShards; ++s) {
    int64_t consumed = 0;
    for (size_t i = 0; i < kObjects; ++i) {
      const gtm::ObjectId oid = object_id(i);
      if (cluster.ShardOf(oid) != s) continue;
      Result<Value> qty =
          cluster.db(s)->GetTable(kTable).value()->GetColumnByKey(
              Value::Int(static_cast<int64_t>(i)), 1);
      ASSERT_TRUE(qty.ok());
      consumed += kInitialQty - qty.value().as_int();
    }
    EXPECT_EQ(consumed, booked[s]) << "shard " << s;
    // Every surviving replica of the shard agrees with its primary.
    replica::ReplicatedGtm* group = cluster.group(s);
    for (size_t n = 0; n < group->num_nodes(); ++n) {
      if (!group->node(n)->alive()) continue;
      EXPECT_EQ(group->node(n)->last_applied(), group->log().last_lsn())
          << "shard " << s << " node " << n;
      EXPECT_TRUE(group->node(n)->gtm()->CheckInvariants().ok());
    }
  }

  // Oracle pass per shard over the post-failover primary's timeline:
  // prepared branches driven to decision on a promoted node must read as
  // ordinary serializable commits/aborts.
  for (size_t s = 0; s < kShards; ++s) {
    const check::History history = recorders[s].Finish();
    ASSERT_TRUE(history.complete) << "shard " << s;
    const check::CheckReport report = check::CheckHistory(history);
    EXPECT_TRUE(report.ok()) << "shard " << s << ": " << report.ToString();
    EXPECT_GT(report.committed_txns, 0u) << "shard " << s;
  }
}

}  // namespace
}  // namespace preserial
