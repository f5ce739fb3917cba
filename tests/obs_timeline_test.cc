// Causal-timeline reconstruction: stitching one global transaction's
// events back together from the merged client / router / shard / replica
// streams via the trace ids the span layer stamped.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/coordinator.h"
#include "cluster/router.h"
#include "common/clock.h"
#include "common/strings.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "obs/trace_context.h"
#include "storage/wal.h"
#include "workload/gtm_experiment.h"

namespace preserial::obs {
namespace {

using gtm::TraceEvent;
using gtm::TraceEventKind;
using gtm::TraceLog;
using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

TraceEvent Event(double time, TraceEventKind kind, TxnId txn,
                 uint64_t trace) {
  TraceEvent e;
  e.time = time;
  e.kind = kind;
  e.txn = txn;
  e.trace = trace;
  return e;
}

TEST(TimelineTest, BuildTimelineFiltersByTraceAndKeepsOrder) {
  std::vector<TraceEvent> merged = {
      Event(1.0, TraceEventKind::kBegin, 1, 100),
      Event(1.5, TraceEventKind::kBegin, 2, 200),
      Event(2.0, TraceEventKind::kGrant, 1, 100),
      Event(3.0, TraceEventKind::kCommit, 1, 100),
  };
  const Timeline tl = BuildTimeline(merged, 100);
  EXPECT_EQ(tl.trace, 100u);
  ASSERT_EQ(tl.events.size(), 3u);
  EXPECT_EQ(tl.Kinds(),
            (std::vector<TraceEventKind>{TraceEventKind::kBegin,
                                         TraceEventKind::kGrant,
                                         TraceEventKind::kCommit}));
  EXPECT_TRUE(tl.Contains(TraceEventKind::kGrant));
  EXPECT_FALSE(tl.Contains(TraceEventKind::kAbort));
}

TEST(TimelineTest, HasSequenceIsSubsequenceNotSubstring) {
  std::vector<TraceEvent> merged = {
      Event(1.0, TraceEventKind::kBegin, 1, 7),
      Event(2.0, TraceEventKind::kWait, 1, 7),
      Event(3.0, TraceEventKind::kGrant, 1, 7),
      Event(4.0, TraceEventKind::kSleep, 1, 7),
      Event(5.0, TraceEventKind::kAwake, 1, 7),
      Event(6.0, TraceEventKind::kCommit, 1, 7),
  };
  const Timeline tl = BuildTimeline(merged, 7);
  // Gaps are fine: a subsequence, not a contiguous run.
  EXPECT_TRUE(tl.HasSequence({TraceEventKind::kBegin, TraceEventKind::kSleep,
                              TraceEventKind::kCommit}));
  EXPECT_TRUE(tl.HasSequence({}));
  // Order matters.
  EXPECT_FALSE(tl.HasSequence(
      {TraceEventKind::kAwake, TraceEventKind::kSleep}));
  EXPECT_FALSE(tl.HasSequence({TraceEventKind::kAbort}));
}

TEST(TimelineTest, TraceOfTxnReturnsFirstTracedOccurrence) {
  std::vector<TraceEvent> merged = {
      Event(1.0, TraceEventKind::kBegin, 5, 0),    // Untraced: skipped.
      Event(2.0, TraceEventKind::kGrant, 5, 41),   // First traced: wins.
      Event(3.0, TraceEventKind::kCommit, 5, 42),  // Id reuse: ignored.
  };
  EXPECT_EQ(TraceOfTxn(merged, 5), 41u);
  EXPECT_EQ(TraceOfTxn(merged, 6), 0u);
}

// Acceptance: one global transaction's full causal timeline — client send,
// branch fan-out, grant, retry, cluster-wide sleep and awake, two-phase
// prepare/commit — reconstructed from the exported spans of four separate
// logs (client lane, router lane, two shard lanes).
TEST(TimelineTest, ReconstructsCrossShardSleepAwakeTwoPcTimeline) {
  ManualClock clock;
  cluster::GtmCluster cluster(2, &clock);
  Schema schema = Schema::Create(
                      {
                          ColumnDef{"id", ValueType::kInt64, false},
                          ColumnDef{"qty", ValueType::kInt64, false},
                      },
                      0)
                      .value();
  ASSERT_TRUE(cluster.CreateTableAllShards("t", std::move(schema)).ok());
  gtm::ObjectId on_shard0, on_shard1;
  for (int i = 0; i < 16 && (on_shard0.empty() || on_shard1.empty()); ++i) {
    const gtm::ObjectId oid = StrFormat("t/%d", i);
    const Value key = Value::Int(i);
    ASSERT_TRUE(cluster.db(cluster.ShardOf(oid))
                    ->InsertRow("t", Row({key, Value::Int(100)}))
                    .ok());
    ASSERT_TRUE(cluster.RegisterObject(oid, "t", key, {1}).ok());
    (cluster.ShardOf(oid) == 0 ? on_shard0 : on_shard1) = oid;
  }
  ASSERT_FALSE(on_shard0.empty());
  ASSERT_FALSE(on_shard1.empty());

  storage::MemoryWalStorage wal;
  cluster::ClusterCoordinator coordinator(&cluster, &wal);
  cluster::GtmRouter router(&cluster, &coordinator, &clock);
  coordinator.EnableTracing(router.trace(), &clock);
  router.trace()->Enable(64);
  cluster.shard(0)->trace()->Enable(64);
  cluster.shard(1)->trace()->Enable(64);
  TraceLog client;  // The session layer's lane, driven by hand here.
  client.Enable(64);

  const TraceContext ctx = NewRootContext();
  TxnId global = kInvalidTxnId;
  {
    SpanScope span(ChildOf(ctx));
    global = router.Begin();
  }
  clock.Advance(1.0);
  {
    SpanScope span(ChildOf(ctx));
    client.Record(clock.Now(), TraceEventKind::kClientSend, global, "",
                  "invoke");
    ASSERT_TRUE(
        router.Invoke(global, on_shard0, 0, Operation::Sub(Value::Int(1)))
            .ok());
  }
  clock.Advance(1.0);
  {
    // The first attempt's reply was lost; the transport resends.
    SpanScope span(ChildOf(ctx));
    client.Record(clock.Now(), TraceEventKind::kClientRetry, global, "",
                  "attempt=2");
  }
  clock.Advance(1.0);
  {
    SpanScope span(ChildOf(ctx));
    client.Record(clock.Now(), TraceEventKind::kClientSend, global, "",
                  "invoke");
    ASSERT_TRUE(
        router.Invoke(global, on_shard1, 0, Operation::Sub(Value::Int(1)))
            .ok());
  }
  clock.Advance(1.0);
  {
    SpanScope span(ChildOf(ctx));
    ASSERT_TRUE(router.Sleep(global).ok());
  }
  clock.Advance(5.0);
  {
    SpanScope span(ChildOf(ctx));
    ASSERT_TRUE(router.Awake(global).ok());
  }
  clock.Advance(1.0);
  {
    SpanScope span(ChildOf(ctx));
    ASSERT_TRUE(router.RequestCommit(global).ok());  // Two branches: 2PC.
  }

  const std::vector<TraceEvent> merged = MergeEvents(
      {&client, router.trace(), cluster.shard(0)->trace(),
       cluster.shard(1)->trace()});
  const uint64_t trace_id = TraceOfTxn(merged, global);
  EXPECT_EQ(trace_id, ctx.trace);

  const Timeline tl = BuildTimeline(merged, trace_id);
  ASSERT_FALSE(tl.events.empty());
  // The whole life of the transaction, in causal order, across all four
  // lanes: send -> branch -> grant -> retry -> sleep -> awake -> 2PC
  // prepare -> 2PC decision -> branch commit.
  EXPECT_TRUE(tl.HasSequence({
      TraceEventKind::kBegin,
      TraceEventKind::kClientSend,
      TraceEventKind::kBranchBegin,
      TraceEventKind::kGrant,
      TraceEventKind::kClientRetry,
      TraceEventKind::kSleep,
      TraceEventKind::kAwake,
      TraceEventKind::kTwoPcPrepare,
      TraceEventKind::kTwoPcCommit,
      TraceEventKind::kCommit,
  })) << tl.ToString();
  // Both shard lanes contributed.
  std::set<int> shards;
  for (const TraceEvent& e : tl.events) {
    if (e.shard >= 0) shards.insert(e.shard);
  }
  EXPECT_EQ(shards, (std::set<int>{0, 1}));
  // Every event correlates to the same trace, each hop under its own span
  // parented inside it.
  for (const TraceEvent& e : tl.events) {
    EXPECT_EQ(e.trace, ctx.trace);
    EXPECT_NE(e.span, 0u);
  }
  EXPECT_NE(tl.ToString().find("GRANT"), std::string::npos);
}

// End-to-end over the replicated failover experiment: the exported span
// stream covers client transport (sends, retries), replication shipping
// and the promotion, and individual transactions still stitch into
// begin-to-commit timelines across the epoch change.
TEST(TimelineTest, FailoverExperimentTraceStitchesAcrossLayers) {
  workload::GtmExperimentSpec spec;
  spec.num_txns = 120;
  spec.num_objects = 5;
  spec.alpha = 0.7;
  spec.beta = 0.0;
  spec.interarrival = 0.5;
  spec.work_time = 2.0;
  spec.seed = 42;
  spec.trace_capacity = 16384;
  workload::ChannelSpec& channel = spec.channel.emplace();
  channel.loss = 0.3;
  channel.duplicate = 0.1;
  channel.reorder = 0.1;
  channel.delay_mean = 0.05;
  channel.request_timeout = 1.0;
  channel.max_attempts = 3;
  channel.reconnect_delay = 10.0;
  auto& replicated = spec.topology.emplace<workload::ReplicatedTopology>();
  replicated.num_backups = 1;
  replicated.ship.mode = replica::ShipMode::kSync;
  replicated.fail_at = 30.0;
  replicated.detect_delay = 1.0;

  const workload::GtmExperimentResult r = workload::RunGtmExperiment(spec);
  ASSERT_TRUE(r.failover.promotion.has_value());
  ASSERT_FALSE(r.trace_events.empty());

  std::set<TraceEventKind> kinds;
  for (const TraceEvent& e : r.trace_events) kinds.insert(e.kind);
  // All three layers appear in one stream.
  EXPECT_TRUE(kinds.count(TraceEventKind::kClientSend));
  EXPECT_TRUE(kinds.count(TraceEventKind::kClientRetry));  // Lossy channel.
  EXPECT_TRUE(kinds.count(TraceEventKind::kShip));         // Replication.
  EXPECT_TRUE(kinds.count(TraceEventKind::kPromote));      // Failover.
  EXPECT_TRUE(kinds.count(TraceEventKind::kCommit));

  // Some transaction that had to retry still stitched into a full
  // send-to-commit timeline.
  std::set<uint64_t> traces;
  for (const TraceEvent& e : r.trace_events) {
    if (e.trace != 0) traces.insert(e.trace);
  }
  bool found = false;
  for (uint64_t trace_id : traces) {
    const Timeline tl = BuildTimeline(r.trace_events, trace_id);
    if (tl.HasSequence({TraceEventKind::kClientSend,
                        TraceEventKind::kClientRetry,
                        TraceEventKind::kCommit})) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found)
      << "no retried transaction reached commit with a stitched timeline";
}

// Sharded experiment: a cross-shard transaction's timeline spans the
// client lane, the router lane and both 2PC phases.
TEST(TimelineTest, ShardedExperimentTwoPcTimeline) {
  workload::GtmExperimentSpec spec;
  spec.num_txns = 200;
  spec.num_objects = 32;
  spec.alpha = 0.8;
  spec.beta = 0.1;
  spec.seed = 42;
  spec.trace_capacity = 16384;
  spec.topology =
      workload::ShardedTopology{.num_shards = 4, .cross_shard_ratio = 0.4};

  const workload::GtmExperimentResult r = workload::RunGtmExperiment(spec);
  ASSERT_FALSE(r.trace_events.empty());
  ASSERT_GT(r.coordinator.commits, 0);

  std::set<uint64_t> traces;
  for (const TraceEvent& e : r.trace_events) {
    if (e.trace != 0) traces.insert(e.trace);
  }
  bool two_pc = false;
  bool slept = false;
  for (uint64_t trace_id : traces) {
    const Timeline tl = BuildTimeline(r.trace_events, trace_id);
    two_pc = two_pc ||
             tl.HasSequence({TraceEventKind::kClientSend,
                             TraceEventKind::kTwoPcPrepare,
                             TraceEventKind::kTwoPcCommit});
    slept = slept || tl.HasSequence({TraceEventKind::kSleep,
                                     TraceEventKind::kAwake,
                                     TraceEventKind::kCommit});
    if (two_pc && slept) break;
  }
  EXPECT_TRUE(two_pc) << "no cross-shard 2PC commit stitched end-to-end";
  EXPECT_TRUE(slept) << "no sleep/awake/commit timeline found";
}

}  // namespace
}  // namespace preserial::obs
