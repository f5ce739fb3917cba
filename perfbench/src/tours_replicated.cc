// tours_replicated: the paper's Sec. II package tours (flight -> hotel ->
// museum -> car, one compatible booking per stop, think time between
// stops, 10% of tours disconnect mid-tour) over a 4-shard cluster. Each
// shard is a replica group: a primary shipping its op log synchronously to
// one backup. Most tours span several shards and commit by 2PC through the
// coordinator. The agency has 1024 counters per table, so each counter
// sees a short commit history and the Algorithm 9 scans stay short.

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/router.h"
#include "common/logging.h"
#include "decorators.h"
#include "replica/replica.h"
#include "workload/runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace cluster = preserial::cluster;
namespace gtm = preserial::gtm;
namespace mobile = preserial::mobile;
namespace storage = preserial::storage;
using preserial::storage::Value;

constexpr size_t kShards = 4;
constexpr size_t kCountersPerTable = 1024;
constexpr const char* kTables[] = {"flights", "hotels", "museums", "cars"};
constexpr size_t kAvailability = 1;
constexpr int64_t kStock = 1000000000;
constexpr double kInterarrival = 0.5;
constexpr double kThink = 1.0;
constexpr double kFinalThink = 1.0;
constexpr double kBeta = 0.1;
constexpr double kDisconnectMean = 10.0;
constexpr double kWaitTimeout = 30.0;
constexpr int64_t kWarmTours = 5000;
// Nominal measured tours per --seconds.
constexpr double kNominalRate = 500;

gtm::ObjectId CounterId(size_t table, size_t i) {
  return std::string(kTables[table]) + "/" + std::to_string(i);
}

mobile::MultiTxnPlan NextTour(InputRng* rng, const cluster::GtmCluster& c) {
  mobile::MultiTxnPlan plan;
  for (size_t t = 0; t < 4; ++t) {
    mobile::TourStep step;
    step.object = CounterId(t, rng->Below(kCountersPerTable));
    step.member = 0;
    step.op = preserial::semantics::Operation::Sub(Value::Int(1));
    step.think_time = kThink;
    step.shard = static_cast<int>(c.ShardOf(step.object));
    plan.steps.push_back(std::move(step));
  }
  plan.shard = plan.steps.front().shard;
  plan.final_think = kFinalThink;
  if (rng->Bernoulli(kBeta)) {
    plan.disconnect.disconnects = true;
    plan.disconnect.offset = rng->Uniform() * (4 * kThink + kFinalThink);
    plan.disconnect.duration = rng->Exponential(kDisconnectMean);
  }
  return plan;
}

struct System {
  preserial::sim::Simulator sim;
  std::unique_ptr<cluster::GtmCluster> cluster;
  std::unique_ptr<TracedShardBackend> backend;  // Traced run only.
  std::unique_ptr<storage::WalStorage> coord_wal;
  CountingWal* counting_wal = nullptr;  // Traced run only.
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  std::unique_ptr<cluster::GtmRouter> router;
  std::unique_ptr<TracedEndpoint> traced;  // Traced run only.
  std::unique_ptr<preserial::workload::GtmRunner> runner;  // Measured.
  ChunkClock warm_chunks;  // The warm phase's, for the set-up time.
  ChunkClock chunks;       // The measured phase's chunk boundaries.
  int64_t warm_committed = 0;
  int64_t warm_aborted = 0;
};

std::unique_ptr<System> SetUp(const RunOptions& options, int64_t measured,
                              bool traced) {
  auto sys = std::make_unique<System>();
  cluster::GtmClusterOptions copts;
  copts.replicas_per_shard = 1;
  sys->cluster = std::make_unique<cluster::GtmCluster>(
      kShards, sys->sim.clock(), copts);
  cluster::GtmCluster* c = sys->cluster.get();
  for (size_t t = 0; t < 4; ++t) {
    preserial::Result<storage::Schema> schema = storage::Schema::Create(
        {
            storage::ColumnDef{"id", storage::ValueType::kInt64, false},
            storage::ColumnDef{"free", storage::ValueType::kInt64, false},
        },
        0);
    PRESERIAL_CHECK(schema.ok());
    PRESERIAL_CHECK(c->CreateTableAllShards(kTables[t], schema.value()).ok());
    for (size_t s = 0; s < kShards; ++s) {
      PRESERIAL_CHECK(c->group(s)
                          ->AddConstraint(kTables[t],
                                          storage::CheckConstraint(
                                              std::string(kTables[t]) +
                                                  "_nonneg",
                                              kAvailability,
                                              storage::CompareOp::kGe,
                                              Value::Int(0)))
                          .ok());
    }
    for (size_t i = 0; i < kCountersPerTable; ++i) {
      const Value key = Value::Int(static_cast<int64_t>(i));
      const gtm::ObjectId id = CounterId(t, i);
      PRESERIAL_CHECK(c->InsertRow(c->ShardOf(id), kTables[t],
                                   storage::Row({key, Value::Int(kStock)}))
                          .ok());
      PRESERIAL_CHECK(
          c->RegisterObject(id, kTables[t], key, {kAvailability}).ok());
    }
  }

  cluster::ShardBackend* backend = c;
  if (traced) {
    sys->backend = std::make_unique<TracedShardBackend>(c);
    backend = sys->backend.get();
    auto wal = std::make_unique<CountingWal>(SpanKind::kCoordWalAppend,
                                             SpanKind::kCoordWalSync);
    sys->counting_wal = wal.get();
    sys->coord_wal = std::move(wal);
  } else {
    sys->coord_wal = std::make_unique<storage::MemoryWalStorage>();
  }
  sys->coordinator = std::make_unique<cluster::ClusterCoordinator>(
      backend, sys->coord_wal.get());
  sys->router = std::make_unique<cluster::GtmRouter>(c, sys->coordinator.get(),
                                                     sys->sim.clock());

  InputRng rng(options.seed);
  {
    preserial::workload::GtmRunner warm(sys->router.get(), &sys->sim,
                                        kWaitTimeout);
    const int64_t n = Scaled(options, kWarmTours);
    for (int64_t i = 0; i < n; ++i) {
      warm.AddMultiSession(NextTour(&rng, *c),
                           static_cast<double>(i) * kInterarrival);
    }
    ScheduleChunkMarks(&sys->sim, 0, kInterarrival, n, &sys->warm_chunks);
    const preserial::workload::RunStats& stats = warm.Run();
    sys->warm_committed = stats.committed;
    sys->warm_aborted = stats.aborted;
  }

  gtm::GtmEndpoint* endpoint = sys->router.get();
  if (traced) {
    sys->traced = std::make_unique<TracedEndpoint>(sys->router.get());
    endpoint = sys->traced.get();
  }
  sys->runner = std::make_unique<preserial::workload::GtmRunner>(
      endpoint, &sys->sim, kWaitTimeout);
  const double start = sys->sim.Now() + kInterarrival;
  for (int64_t i = 0; i < measured; ++i) {
    sys->runner->AddMultiSession(
        NextTour(&rng, *c), start + static_cast<double>(i) * kInterarrival);
  }
  ScheduleChunkMarks(&sys->sim, start, kInterarrival, measured,
                     &sys->chunks);
  return sys;
}

// Every booking is compatible with every other and the stock never runs
// out, so any abort is a failure. Quantity drained from the primaries must
// equal four bookings per committed tour, and each backup must hold its
// primary's permanent values.
void CheckOutputs(System* sys, const preserial::workload::RunStats& run,
                  int64_t measured, Report* report) {
  if (run.started != measured) {
    report->Fail("measured tours finished " + std::to_string(run.started) +
                 " of " + std::to_string(measured));
  }
  report->CountFailed(sys->warm_aborted + run.aborted);
  cluster::GtmCluster* c = sys->cluster.get();
  int64_t drained = 0;
  for (size_t t = 0; t < 4; ++t) {
    for (size_t i = 0; i < kCountersPerTable; ++i) {
      const gtm::ObjectId id = CounterId(t, i);
      const Value key = Value::Int(static_cast<int64_t>(i));
      preserial::replica::ReplicatedGtm* group = c->group(c->ShardOf(id));
      preserial::Result<Value> primary =
          group->primary_db()->GetTable(kTables[t]).value()->GetColumnByKey(
              key, kAvailability);
      if (!primary.ok()) {
        report->Fail("no row for " + id + " on its primary");
        continue;
      }
      drained += kStock - primary.value().as_int();
      for (size_t n = 0; n < group->num_nodes(); ++n) {
        if (n == group->primary_index()) continue;
        preserial::replica::ReplicaNode* node = group->node(n);
        preserial::Result<Value> cached = node->gtm()->PermanentValue(id, 0);
        preserial::Result<Value> cell =
            node->db()->GetTable(kTables[t]).value()->GetColumnByKey(
                key, kAvailability);
        if (!cached.ok() || !cell.ok() ||
            cached.value().as_int() != primary.value().as_int() ||
            cell.value().as_int() != primary.value().as_int()) {
          report->Fail("backup " + node->name() + " disagrees with its " +
                       "primary on " + id);
        }
      }
    }
  }
  const int64_t expected = 4 * (sys->warm_committed + run.committed);
  if (drained != expected) {
    report->Fail("quantity drained " + std::to_string(drained) +
                 " != committed bookings " + std::to_string(expected));
  }
}

// Replica-layer readings summed over the shards' replica groups.
struct ReplicaReading {
  int64_t log_records = 0;
  int64_t records_shipped = 0;
  int64_t resends = 0;
  std::vector<uint64_t> last_lsn;  // Per group.
};

ReplicaReading ReadReplicas(cluster::GtmCluster* c) {
  ReplicaReading r;
  for (size_t s = 0; s < kShards; ++s) {
    const preserial::replica::ReplicatedGtm* g = c->group(s);
    r.log_records += static_cast<int64_t>(g->log().last_lsn());
    r.records_shipped += g->shipper().counters().records_shipped;
    r.resends += g->shipper().counters().resends;
    r.last_lsn.push_back(g->log().last_lsn());
  }
  return r;
}

// The primaries' wait-time histograms, summed over shards.
HistogramReading ReadWaits(cluster::GtmCluster* c) {
  HistogramReading r;
  for (size_t s = 0; s < kShards; ++s) {
    const HistogramReading h =
        ReadHistogram(c->shard(s)->metrics().wait_time());
    r.sum += h.sum;
    r.count += h.count;
  }
  return r;
}

}  // namespace

Report RunToursReplicated(const RunOptions& options) {
  Report report("tours_replicated");
  const int64_t measured = MeasuredCount(options, kNominalRate);
  report.set_attempted(measured);

  if (!options.trace) {
    ReportRepetitions(measured, /*virtual_time=*/true, [&] {
      const SetupStart start;
      std::unique_ptr<System> sys = SetUp(options, measured, false);
      Repetition rep =
          MeasureSimRepetition(start, sys->warm_chunks, sys->runner.get(),
                               sys->chunks, measured);
      CheckOutputs(sys.get(), sys->runner->stats(), measured, &report);
      return rep;
    }, &report);
    return report;
  }

  // Traced run: an untraced measurement first, for the tracing overhead,
  // then the same inputs through the decorators with spans on.
  SimTrace t;
  t.measured = measured;
  {
    std::unique_ptr<System> sys = SetUp(options, measured, false);
    t.untraced_txn_per_cpu_s =
        RunSimPhase(sys->runner.get(), sys->chunks, measured).txn_per_cpu_s;
  }
  std::unique_ptr<System> sys = SetUp(options, measured, true);
  cluster::GtmCluster* c = sys->cluster.get();
  t.before = c->AggregateSnapshot().counters;
  const HistogramReading wait_before = ReadWaits(c);
  const CountingWal::Counts wal_before = sys->counting_wal->counts();
  const cluster::ClusterCoordinator::Counters coord_before =
      sys->coordinator->counters();
  const int64_t router_before = sys->router->committed();
  const ReplicaReading replica_before = ReadReplicas(c);

  Tracer::Clear();
  Tracer::Enable(true);
  t.traced_txn_per_cpu_s =
      RunSimPhase(sys->runner.get(), sys->chunks, measured).txn_per_cpu_s;
  Tracer::Enable(false);

  CheckOutputs(sys.get(), sys->runner->stats(), measured, &report);
  PrintTenths("tours_replicated", sys->chunks, measured / kChunks);

  t.spans = AggregateSpans();
  t.endpoint = sys->traced->counts();
  t.after = c->AggregateSnapshot().counters;
  t.wait_vs_mean = PhaseMean(wait_before, ReadWaits(c));
  const TracedShardBackend::Counts& be = sys->backend->counts();
  const double global_commits =
      static_cast<double>(sys->router->committed() - router_before);
  const cluster::ClusterCoordinator::Counters coord =
      sys->coordinator->counters();
  const double globals = static_cast<double>(
      coord.commits + coord.aborts - coord_before.commits -
      coord_before.aborts);
  const CountingWal::Counts wal = sys->counting_wal->counts();
  const ReplicaReading replica = ReadReplicas(c);
  int64_t log_bytes = 0;
  int64_t lag = 0;
  GtmState backups;
  for (size_t s = 0; s < kShards; ++s) {
    preserial::replica::ReplicatedGtm* g = c->group(s);
    std::string buf;
    for (uint64_t lsn = replica_before.last_lsn[s] + 1;
         lsn <= g->log().last_lsn(); ++lsn) {
      buf.clear();
      g->log().At(lsn).EncodeTo(&buf);
      log_bytes += static_cast<int64_t>(buf.size());
    }
    lag += static_cast<int64_t>(g->shipper()->Lag());
    for (size_t n = 0; n < g->num_nodes(); ++n) {
      const GtmState st = ReadGtmState(*g->node(n)->gtm());
      GtmState& sum = n == g->primary_index() ? t.state : backups;
      sum.committed_entries += st.committed_entries;
      sum.finished_txns += st.finished_txns;
    }
  }

  std::map<std::string, double> v;
  AddSimLayerMetrics(t, &v);
  auto span = [&](SpanKind k) -> const SpanStats& {
    return t.spans[static_cast<size_t>(k)];
  };
  v["cluster.router.invoke.us"] = span(SpanKind::kInvoke).self_mean_us();
  v["cluster.router.commit.us"] = span(SpanKind::kCommit).self_mean_us();
  v["cluster.2pc.prepare.us"] = span(SpanKind::kPrepare).mean_us();
  v["cluster.2pc.commit_prepared.us"] =
      span(SpanKind::kCommitPrepared).mean_us();
  v["cluster.2pc.global_ratio"] =
      Ratio(static_cast<double>(coord.commits - coord_before.commits),
            global_commits);
  v["cluster.2pc.no_vote_ratio"] = Ratio(static_cast<double>(be.no_votes),
                                         static_cast<double>(be.prepares));
  v["cluster.coord_wal.bytes_per_global"] =
      Ratio(static_cast<double>(wal.bytes - wal_before.bytes), globals);
  v["cluster.coord_wal.syncs_per_global"] =
      Ratio(static_cast<double>(wal.syncs - wal_before.syncs), globals);
  v["replica.log.records_per_commit"] = Ratio(
      static_cast<double>(replica.log_records - replica_before.log_records),
      global_commits);
  v["replica.log.bytes_per_commit"] =
      Ratio(static_cast<double>(log_bytes), global_commits);
  v["replica.ship.records_per_commit"] =
      Ratio(static_cast<double>(replica.records_shipped -
                                replica_before.records_shipped),
            global_commits);
  v["replica.ship.resends"] =
      static_cast<double>(replica.resends - replica_before.resends);
  v["replica.backup.committed_entries"] =
      static_cast<double>(backups.committed_entries);
  v["replica.backup.finished_txns"] =
      static_cast<double>(backups.finished_txns);
  v["replica.lag_records"] = static_cast<double>(lag);
  FinishTracedRun(options, v, &report);
  return report;
}

}  // namespace perfbench
