// sec6b_hot: the paper's Sec. VI-B stream at its own contention. Five
// objects whose quantity and price are logically dependent members; 70% of
// transactions book (subtract 1 from the quantity) and 5% of those
// disconnect mid-transaction for an exponential 10 s mean; the rest set
// the price (an assignment, incompatible with concurrent bookings).
// Arrivals every 0.5 s, 2 s of work. Set-up runs a warm history of 10^5
// transactions to completion, so the measured transactions meet long
// per-object commit histories and a large transaction table.

#include <memory>
#include <vector>

#include "common/logging.h"
#include "decorators.h"
#include "workload/runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gtm = preserial::gtm;
namespace mobile = preserial::mobile;
namespace storage = preserial::storage;
using preserial::storage::Value;

constexpr char kTable[] = "resources";
constexpr size_t kColQty = 1;
constexpr size_t kColPrice = 2;
constexpr size_t kObjects = 5;
constexpr double kAlpha = 0.7;
constexpr double kBeta = 0.05;
constexpr double kInterarrival = 0.5;
constexpr double kWork = 2.0;
constexpr double kDisconnectMean = 10.0;
constexpr int64_t kInitialQty = 1000000000;
constexpr double kPrice = 100.0;
constexpr int64_t kWarmTxns = 100000;
// Nominal measured transactions per --seconds.
constexpr double kNominalRate = 4000;
constexpr int kTagSub = 0;
constexpr int kTagAssign = 1;

gtm::ObjectId ObjectFor(size_t i) {
  return std::string(kTable) + "/" + std::to_string(i);
}

mobile::TxnPlan NextPlan(InputRng* rng) {
  mobile::TxnPlan plan;
  plan.object = ObjectFor(rng->Below(kObjects));
  plan.work_time = kWork;
  if (rng->Bernoulli(kAlpha)) {
    plan.member = 0;
    plan.op = preserial::semantics::Operation::Sub(Value::Int(1));
    plan.tag = kTagSub;
    if (rng->Bernoulli(kBeta)) {
      plan.disconnect.disconnects = true;
      plan.disconnect.offset = rng->Uniform() * kWork;
      plan.disconnect.duration = rng->Exponential(kDisconnectMean);
    }
  } else {
    plan.member = 1;
    plan.op = preserial::semantics::Operation::Assign(Value::Double(kPrice));
    plan.tag = kTagAssign;
  }
  return plan;
}

// One Gtm with its database, driven in virtual time, from set-up to the
// end of the measured phase.
struct System {
  preserial::sim::Simulator sim;
  CountingWal* wal = nullptr;  // Traced run only; owned by `db`.
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<gtm::Gtm> gtm;
  std::unique_ptr<TracedEndpoint> traced;  // Traced run only.
  std::unique_ptr<preserial::workload::GtmRunner> runner;  // Measured.
  ChunkClock warm_chunks;  // The warm phase's, for the set-up time.
  ChunkClock chunks;       // The measured phase's chunk boundaries.
  int64_t warm_committed_subs = 0;
  int64_t warm_unexpected_aborts = 0;
};

// Aborts other than Algorithm 9's awake conflict are failures here: with
// single-object transactions there are no deadlocks, and the stock never
// runs out.
int64_t UnexpectedAborts(const preserial::workload::RunStats& stats) {
  int64_t n = 0;
  for (const auto& [cause, count] : stats.aborts_by_cause) {
    if (cause != mobile::AbortCause::kAwakeConflict) n += count;
  }
  return n;
}

int64_t CommittedSubs(const preserial::workload::RunStats& stats) {
  auto it = stats.latency_by_tag.find(kTagSub);
  return it == stats.latency_by_tag.end() ? 0 : it->second.count();
}

std::unique_ptr<System> SetUp(const RunOptions& options, int64_t measured,
                              bool traced) {
  auto sys = std::make_unique<System>();
  sys->db = MakeDatabase(traced, &sys->wal);
  preserial::Result<storage::Schema> schema = storage::Schema::Create(
      {
          storage::ColumnDef{"id", storage::ValueType::kInt64, false},
          storage::ColumnDef{"qty", storage::ValueType::kInt64, false},
          storage::ColumnDef{"price", storage::ValueType::kDouble, false},
      },
      0);
  PRESERIAL_CHECK(schema.ok());
  PRESERIAL_CHECK(sys->db->CreateTable(kTable, std::move(schema).value()).ok());
  sys->gtm = std::make_unique<gtm::Gtm>(sys->db.get(), sys->sim.clock());
  for (size_t i = 0; i < kObjects; ++i) {
    const Value key = Value::Int(static_cast<int64_t>(i));
    const storage::Row row(
        {key, Value::Int(kInitialQty), Value::Double(kPrice)});
    PRESERIAL_CHECK(sys->db->InsertRow(kTable, row).ok());
    preserial::semantics::LogicalDependencies deps;
    deps.AddDependency(0, 1);
    PRESERIAL_CHECK(sys->gtm
                        ->RegisterObject(ObjectFor(i), kTable, key,
                                         {kColQty, kColPrice}, std::move(deps))
                        .ok());
  }

  InputRng rng(options.seed);
  {
    preserial::workload::GtmRunner warm(sys->gtm.get(), &sys->sim);
    const int64_t n = Scaled(options, kWarmTxns);
    for (int64_t i = 0; i < n; ++i) {
      warm.AddSession(NextPlan(&rng), static_cast<double>(i) * kInterarrival);
    }
    ScheduleChunkMarks(&sys->sim, 0, kInterarrival, n, &sys->warm_chunks);
    const preserial::workload::RunStats& stats = warm.Run();
    sys->warm_committed_subs = CommittedSubs(stats);
    sys->warm_unexpected_aborts = UnexpectedAborts(stats);
  }

  gtm::GtmEndpoint* endpoint = sys->gtm.get();
  if (traced) {
    sys->traced = std::make_unique<TracedEndpoint>(sys->gtm.get());
    endpoint = sys->traced.get();
  }
  sys->runner =
      std::make_unique<preserial::workload::GtmRunner>(endpoint, &sys->sim);
  const double start = sys->sim.Now() + kInterarrival;
  for (int64_t i = 0; i < measured; ++i) {
    sys->runner->AddSession(NextPlan(&rng),
                            start + static_cast<double>(i) * kInterarrival);
  }
  ScheduleChunkMarks(&sys->sim, start, kInterarrival, measured,
                     &sys->chunks);
  return sys;
}

// Quantity drained from the database must equal committed bookings, and
// the Gtm's cached X_permanent must match the database.
void CheckOutputs(const System& sys, const preserial::workload::RunStats& run,
                  int64_t measured, Report* report) {
  if (run.started != measured) {
    report->Fail("measured sessions finished " + std::to_string(run.started) +
                 " of " + std::to_string(measured));
  }
  report->CountFailed(sys.warm_unexpected_aborts + UnexpectedAborts(run));
  int64_t drained = 0;
  for (size_t i = 0; i < kObjects; ++i) {
    preserial::Result<Value> qty =
        sys.db->GetTable(kTable).value()->GetColumnByKey(
            Value::Int(static_cast<int64_t>(i)), kColQty);
    preserial::Result<Value> cached = sys.gtm->PermanentValue(ObjectFor(i), 0);
    if (!qty.ok() || !cached.ok() ||
        cached.value().as_int() != qty.value().as_int()) {
      report->Fail("X_permanent of " + ObjectFor(i) +
                   " disagrees with the database");
      continue;
    }
    drained += kInitialQty - qty.value().as_int();
  }
  const int64_t expected = sys.warm_committed_subs + CommittedSubs(run);
  if (drained != expected) {
    report->Fail("quantity drained " + std::to_string(drained) +
                 " != committed bookings " + std::to_string(expected));
  }
}

}  // namespace

Report RunSec6bHot(const RunOptions& options) {
  Report report("sec6b_hot");
  const int64_t measured = MeasuredCount(options, kNominalRate);
  report.set_attempted(measured);

  if (!options.trace) {
    ReportRepetitions(measured, /*virtual_time=*/true, [&] {
      const SetupStart start;
      std::unique_ptr<System> sys = SetUp(options, measured, false);
      Repetition rep =
          MeasureSimRepetition(start, sys->warm_chunks, sys->runner.get(),
                               sys->chunks, measured);
      CheckOutputs(*sys, sys->runner->stats(), measured, &report);
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
  t.before = sys->gtm->metrics().counters();
  const HistogramReading wait_before =
      ReadHistogram(sys->gtm->metrics().wait_time());
  const CountingWal::Counts wal_before = sys->wal->counts();

  Tracer::Clear();
  Tracer::Enable(true);
  t.traced_txn_per_cpu_s =
      RunSimPhase(sys->runner.get(), sys->chunks, measured).txn_per_cpu_s;
  Tracer::Enable(false);

  CheckOutputs(*sys, sys->runner->stats(), measured, &report);
  PrintTenths("sec6b_hot", sys->chunks, measured / kChunks);

  t.spans = AggregateSpans();
  t.endpoint = sys->traced->counts();
  t.after = sys->gtm->metrics().counters();
  t.wait_vs_mean =
      PhaseMean(wait_before, ReadHistogram(sys->gtm->metrics().wait_time()));
  t.state = ReadGtmState(*sys->gtm);
  std::map<std::string, double> v;
  AddSimLayerMetrics(t, &v);

  AddWalLayerMetrics(wal_before, sys->wal->counts(),
                     static_cast<double>(t.after.committed -
                                         t.before.committed),
                     t.spans, &v);
  FinishTracedRun(options, v, &report);
  return report;
}

}  // namespace perfbench
