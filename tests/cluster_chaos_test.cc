// Chaos tests of the sharded cluster. First: a seeded storm of overlapping
// single-shard and cross-shard transactions while the coordinator keeps
// "crashing" between prepare and decision — after every crash a successor
// recovers from the coordinator WAL, and no global transaction may ever
// end half-committed; per-shard conservation must hold exactly. Second: a
// fault-tolerant session population drives the router over a channel that
// drops, duplicates and reorders messages — the ground truth read back per
// shard must agree with what the clients report, as in lossy_chaos_test.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "check/history.h"
#include "cluster/cluster.h"
#include "cluster/coordinator.h"
#include "cluster/router.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "gtm/txn_state.h"
#include "mobile/network.h"
#include "mobile/session.h"
#include "semantics/operation.h"
#include "sim/distributions.h"
#include "sim/simulator.h"
#include "storage/wal.h"
#include "workload/runner.h"

namespace preserial::cluster {
namespace {

using gtm::TxnState;
using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr char kTable[] = "resources";
constexpr int64_t kInitialQty = 100000;

gtm::ObjectId ObjectIdFor(size_t i) { return StrFormat("%s/%zu", kTable, i); }

// Shared fixture pieces: an N-shard cluster whose objects each carry one
// qty member backed by column 1 of their owning shard's table.
std::unique_ptr<GtmCluster> BuildCluster(size_t num_shards, size_t num_objects,
                                         const Clock* clock) {
  auto cluster = std::make_unique<GtmCluster>(num_shards, clock);
  Result<Schema> schema = Schema::Create(
      {
          ColumnDef{"id", ValueType::kInt64, false},
          ColumnDef{"qty", ValueType::kInt64, false},
      },
      /*primary_key=*/0);
  PRESERIAL_CHECK(schema.ok());
  PRESERIAL_CHECK(
      cluster->CreateTableAllShards(kTable, std::move(schema).value()).ok());
  for (size_t i = 0; i < num_objects; ++i) {
    const gtm::ObjectId oid = ObjectIdFor(i);
    const Value key = Value::Int(static_cast<int64_t>(i));
    PRESERIAL_CHECK(cluster->db(cluster->ShardOf(oid))
                        ->InsertRow(kTable, Row({key, Value::Int(kInitialQty)}))
                        .ok());
    PRESERIAL_CHECK(cluster->RegisterObject(oid, kTable, key, {1}).ok());
  }
  return cluster;
}

// Quantity drained from `shard`, read straight from its database.
int64_t ConsumedOnShard(GtmCluster* cluster, ShardId shard,
                        size_t num_objects) {
  int64_t consumed = 0;
  for (size_t i = 0; i < num_objects; ++i) {
    const gtm::ObjectId oid = ObjectIdFor(i);
    if (cluster->ShardOf(oid) != shard) continue;
    Result<Value> qty = cluster->db(shard)->GetTable(kTable).value()->GetColumnByKey(
        Value::Int(static_cast<int64_t>(i)), 1);
    PRESERIAL_CHECK(qty.ok());
    consumed += kInitialQty - qty.value().as_int();
  }
  return consumed;
}

TEST(ClusterChaosTest, CoordinatorCrashStormNeverHalfCommits) {
  constexpr size_t kShards = 3;
  constexpr size_t kObjects = 30;
  constexpr int kRounds = 240;

  ManualClock clock;
  std::unique_ptr<GtmCluster> cluster = BuildCluster(kShards, kObjects, &clock);
  storage::MemoryWalStorage wal;
  auto coordinator = std::make_unique<ClusterCoordinator>(cluster.get(), &wal);

  // Record every shard's interleaving — each shard is its own
  // serialization domain; the oracle validates each independently.
  check::ClusterHistoryRecorder recorder;
  recorder.Attach(cluster.get());

  Rng rng(20080615);
  std::vector<int64_t> booked(kShards, 0);  // Units committed, per shard.
  int64_t crashes = 0, recovered_commits = 0, presumed_aborts = 0;
  TxnId next_global = 1;

  // One unit booked on the owner of a random object; returns (shard, branch).
  auto book = [&](TxnId* branch_out) {
    const gtm::ObjectId oid = ObjectIdFor(rng.NextBounded(kObjects));
    const ShardId shard = cluster->ShardOf(oid);
    const TxnId branch = cluster->shard(shard)->Begin();
    Status s = cluster->shard(shard)->Invoke(branch, oid, 0,
                                             Operation::Sub(Value::Int(1)));
    PRESERIAL_CHECK(s.ok()) << s.ToString();
    *branch_out = branch;
    return shard;
  };

  for (int round = 0; round < kRounds; ++round) {
    clock.Advance(1.0);
    // Background single-shard traffic overlapping the global transaction.
    if (rng.NextBool(0.7)) {
      TxnId branch;
      const ShardId shard = book(&branch);
      PRESERIAL_CHECK(cluster->shard(shard)->RequestCommit(branch).ok());
      ++booked[shard];
    }

    // A cross-shard transaction: two branches on distinct shards.
    TxnId b1, b2;
    const ShardId s1 = book(&b1);
    ShardId s2;
    TxnId tmp;
    do {
      s2 = book(&tmp);
      if (s2 == s1) {
        PRESERIAL_CHECK(cluster->AbortBranch(s2, tmp).ok());
      }
    } while (s2 == s1);
    b2 = tmp;

    std::vector<std::pair<ShardId, TxnId>> branches = {{s1, b1}, {s2, b2}};
    // Every third round the coordinator dies mid-protocol, alternating
    // between in-doubt (after prepare) and decided (after decision).
    const bool crash = round % 3 == 0;
    if (crash) {
      coordinator->set_crash_point(round % 6 == 0 ? CrashPoint::kAfterPrepare
                                                  : CrashPoint::kAfterDecision);
    }
    const Status s = coordinator->CommitGlobal(next_global++, branches);
    if (s.ok()) {
      ++booked[s1];
      ++booked[s2];
      continue;
    }
    ASSERT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    ++crashes;

    // The old coordinator is gone; a successor recovers from its WAL.
    coordinator = std::make_unique<ClusterCoordinator>(cluster.get(), &wal);
    Result<ClusterCoordinator::RecoveryOutcome> out = coordinator->Recover();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    recovered_commits += out.value().committed_forward;
    presumed_aborts += out.value().presumed_aborts;

    // Atomicity: after recovery both branches agree on the outcome.
    const TxnState st1 = cluster->shard(s1)->StateOf(b1).value();
    const TxnState st2 = cluster->shard(s2)->StateOf(b2).value();
    ASSERT_TRUE(st1 == TxnState::kCommitted || st1 == TxnState::kAborted);
    ASSERT_EQ(st1, st2) << "half-committed global transaction";
    if (st1 == TxnState::kCommitted) {
      ++booked[s1];
      ++booked[s2];
    }
  }

  // The storm actually exercised both crash points and both resolutions.
  EXPECT_EQ(crashes, kRounds / 3);
  EXPECT_GT(recovered_commits, 0);
  EXPECT_GT(presumed_aborts, 0);

  // Conservation, shard by shard: the database lost exactly one unit per
  // booked unit — a lost decision or a double-driven phase 2 would break it.
  for (ShardId s = 0; s < kShards; ++s) {
    EXPECT_EQ(ConsumedOnShard(cluster.get(), s, kObjects), booked[s])
        << "shard " << s;
  }

  // Every shard's history — including the prepare/commit-prepared spans of
  // recovered global transactions — must be semantically serializable.
  std::vector<check::History> histories = recorder.Finish();
  ASSERT_EQ(histories.size(), kShards);
  for (size_t s = 0; s < histories.size(); ++s) {
    ASSERT_TRUE(histories[s].complete) << "shard " << s;
    const check::CheckReport report = check::CheckHistory(histories[s]);
    EXPECT_TRUE(report.ok()) << "shard " << s << ": " << report.ToString();
    EXPECT_GT(report.committed_txns, 0u) << "shard " << s;
  }
}

TEST(ClusterChaosTest, LossySessionsOverRouterConservePerShard) {
  constexpr size_t kShards = 3;
  constexpr size_t kObjects = 12;
  constexpr int kSessions = 300;

  sim::Simulator simulator;
  std::unique_ptr<GtmCluster> cluster =
      BuildCluster(kShards, kObjects, simulator.clock());
  storage::MemoryWalStorage wal;
  ClusterCoordinator coordinator(cluster.get(), &wal);
  GtmRouter router(cluster.get(), &coordinator);
  workload::GtmRunner runner(&router, &simulator);

  check::ClusterHistoryRecorder recorder;
  recorder.Attach(cluster.get());

  mobile::ChannelFaults faults;
  faults.loss = 0.2;
  faults.duplicate = 0.15;
  faults.reorder = 0.1;
  mobile::LossyChannel lossy(
      mobile::NetworkModel(std::make_unique<sim::ExponentialDist>(0.05)),
      faults);

  Rng rng(4242);
  Rng channel_rng(4242 ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < kSessions; ++i) {
    const gtm::ObjectId oid = ObjectIdFor(rng.NextBounded(kObjects));
    mobile::FtPlan plan;
    plan.base.object = oid;
    plan.base.member = 0;
    plan.base.op = Operation::Sub(Value::Int(1));
    plan.base.work_time = 1.0;
    // Tag = owning shard, so the committed-per-shard tally falls out of the
    // runner's per-tag stats.
    plan.base.tag = static_cast<int>(cluster->ShardOf(oid));
    plan.retry.request_timeout = 1.0;
    plan.retry.max_attempts = 3;
    plan.mode = mobile::FtMode::kDegradeToSleep;
    plan.reconnect_delay = 5.0;
    runner.AddFaultTolerantSession(std::move(plan), 0.4 * i, &lossy,
                                   &channel_rng);
  }

  const workload::RunStats& run = runner.Run();
  EXPECT_EQ(run.started, kSessions);
  EXPECT_GT(run.committed, 0);

  // The channel misbehaved and the shards' reply caches absorbed it.
  EXPECT_GT(lossy.counters().dropped, 0);
  EXPECT_GT(lossy.counters().duplicated, 0);
  EXPECT_GT(cluster->AggregateSnapshot().counters.duplicates_suppressed, 0);

  // Per-shard conservation: each shard's database lost exactly one unit per
  // committed session homed on that shard.
  for (ShardId s = 0; s < kShards; ++s) {
    const int tag = static_cast<int>(s);
    EXPECT_EQ(ConsumedOnShard(cluster.get(), s, kObjects),
              run.CommittedWithTag(tag))
        << "shard " << s;
  }

  // Oracle pass over each shard's interleaving of the lossy-session storm:
  // redeliveries absorbed by the reply cache must not show up as
  // double-applied commits in any serial-equivalence sense.
  std::vector<check::History> histories = recorder.Finish();
  ASSERT_EQ(histories.size(), kShards);
  for (size_t s = 0; s < histories.size(); ++s) {
    ASSERT_TRUE(histories[s].complete) << "shard " << s;
    const check::CheckReport report = check::CheckHistory(histories[s]);
    EXPECT_TRUE(report.ok()) << "shard " << s << ": " << report.ToString();
  }
}

}  // namespace
}  // namespace preserial::cluster
