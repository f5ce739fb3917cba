// svc_wide: the thread-safe GtmService in one process, closed loop, one
// client thread. Each transaction is Begin -> Invoke(Sub 1) -> Commit on
// one of 8192 uniformly chosen objects, or, for a fixed 20% share, Begin ->
// Read -> Commit. Reads share with bookings (Table I), so nothing waits:
// the time goes to the per-call hot path under the service mutex. No
// simulator, no Sleep/Awake, no cluster or replicas. The traced run also
// drives the service from one client per core, for the scaling ratio.

#include <algorithm>
#include <latch>
#include <memory>
#include <sched.h>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "decorators.h"
#include "gtm/gtm_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gtm = preserial::gtm;
namespace storage = preserial::storage;
using preserial::Status;
using preserial::TxnId;
using preserial::storage::Value;

constexpr char kTable[] = "items";
constexpr size_t kColQty = 1;
constexpr size_t kObjects = 8192;
constexpr double kReadShare = 0.2;
constexpr int64_t kInitialQty = 1000000000;
constexpr int64_t kWarmTxns = 20000;
// Nominal measured transactions per --seconds.
constexpr double kNominalRate = 16000;

// Cores this process may run on.
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

struct Step {
  uint32_t object = 0;
  bool read = false;
};

// Splits `total` generated steps over `threads` client threads.
std::vector<std::vector<Step>> MakePlans(InputRng* rng, int64_t total,
                                         int threads) {
  std::vector<std::vector<Step>> plans(static_cast<size_t>(threads));
  for (int64_t i = 0; i < total; ++i) {
    Step step;
    step.object = static_cast<uint32_t>(rng->Below(kObjects));
    step.read = rng->Bernoulli(kReadShare);
    plans[static_cast<size_t>(i % threads)].push_back(step);
  }
  return plans;
}

struct System {
  CountingWal* wal = nullptr;  // Traced run only; owned by `db`.
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<gtm::GtmService> service;
  std::vector<gtm::ObjectId> ids;
  std::vector<std::vector<Step>> measured;  // Per client thread.
  std::vector<int64_t> committed_subs;      // Per object, every phase.
  int64_t warm_failed = 0;
  ChunkClock warm_chunks;  // Marked when one client warms up.
};

struct Phase {
  int64_t committed = 0;
  int64_t failed = 0;
  int64_t wall_ns = 0;  // The whole phase.
  // Thread CPU time of each transaction, Begin to commit return, in ns; in
  // the order run when there is one client.
  std::vector<double> cpu_ns;
  ChunkClock chunks;  // Marked only when RunPhase is asked to.

  double WallRate() const {
    return Ratio(1e9 * static_cast<double>(committed + failed),
                 static_cast<double>(wall_ns));
  }

  // Median over chunks of a statistic of the chunk's transaction CPU times
  // at the reference host's speed, in ms.
  template <typename Stat>
  double MedianOverChunks(Stat stat) const {
    const size_t per_chunk = cpu_ns.size() / kChunks;
    std::vector<double> values;
    for (size_t k = 0; k < chunks.chunks(); ++k) {
      std::vector<double> chunk;
      for (size_t i = k * per_chunk; i < (k + 1) * per_chunk; ++i) {
        chunk.push_back(1e-6 * cpu_ns[i] * chunks.Speed(k));
      }
      values.push_back(stat(std::move(chunk)));
    }
    return Median(std::move(values));
  }
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

double P99(std::vector<double> v) { return Percentile(std::move(v), 0.99); }

// Runs every thread's plan in a closed loop and waits for all of them.
// With `chunked` (one client only) the client marks the phase's ChunkClock
// at every chunk boundary.
Phase RunPhase(System* sys, const std::vector<std::vector<Step>>& plans,
               bool chunked) {
  const size_t threads = plans.size();
  PRESERIAL_CHECK(!chunked || threads == 1);
  Phase phase;
  std::vector<std::vector<double>> cpu_ns(threads);
  std::vector<std::vector<int64_t>> subs(threads);
  std::vector<int64_t> committed(threads, 0);
  std::vector<int64_t> failed(threads, 0);
  std::latch ready(static_cast<std::ptrdiff_t>(threads));
  std::latch go(1);
  const preserial::semantics::Operation book =
      preserial::semantics::Operation::Sub(Value::Int(1));
  gtm::GtmService* svc = sys->service.get();

  auto client = [&](size_t t) {
    const std::vector<Step>& plan = plans[t];
    const size_t per_chunk = std::max<size_t>(1, plan.size() / kChunks);
    auto boundary = [&](size_t i) {
      return chunked && i % per_chunk == 0 && i / per_chunk <= kChunks;
    };
    cpu_ns[t].reserve(plan.size());
    subs[t].assign(kObjects, 0);
    ready.count_down();
    go.wait();
    for (size_t i = 0; i < plan.size(); ++i) {
      if (boundary(i)) phase.chunks.Mark();
      const Step& step = plan[i];
      const gtm::ObjectId& id = sys->ids[step.object];
      const int64_t t0 = ThreadCpuNs();
      TxnId txn;
      {
        ScopedSpan span(SpanKind::kSvcBegin);
        txn = svc->Begin();
        span.set_txn(txn);
      }
      Status s;
      if (step.read) {
        ScopedSpan span(SpanKind::kSvcRead, txn);
        s = svc->Read(txn, id, 0).status();
      } else {
        ScopedSpan span(SpanKind::kSvcInvoke, txn);
        s = svc->Invoke(txn, id, 0, book);
      }
      if (s.ok()) {
        ScopedSpan span(SpanKind::kSvcCommit, txn);
        s = svc->Commit(txn);
      } else {
        (void)svc->Abort(txn);
      }
      cpu_ns[t].push_back(static_cast<double>(ThreadCpuNs() - t0));
      if (s.ok()) {
        ++committed[t];
        if (!step.read) ++subs[t][step.object];
      } else {
        ++failed[t];
      }
    }
    if (boundary(plan.size())) phase.chunks.Mark();
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) workers.emplace_back(client, t);
  ready.wait();
  const int64_t start = NowNs();
  go.count_down();
  for (std::thread& w : workers) w.join();
  phase.wall_ns = NowNs() - start;
  for (size_t t = 0; t < threads; ++t) {
    phase.committed += committed[t];
    phase.failed += failed[t];
    phase.cpu_ns.insert(phase.cpu_ns.end(), cpu_ns[t].begin(),
                        cpu_ns[t].end());
    for (size_t o = 0; o < kObjects; ++o) {
      sys->committed_subs[o] += subs[t][o];
    }
  }
  return phase;
}

std::unique_ptr<System> SetUp(const RunOptions& options, int64_t measured,
                              int threads, bool traced) {
  auto sys = std::make_unique<System>();
  sys->db = MakeDatabase(traced, &sys->wal);
  preserial::Result<storage::Schema> schema = storage::Schema::Create(
      {
          storage::ColumnDef{"id", storage::ValueType::kInt64, false},
          storage::ColumnDef{"qty", storage::ValueType::kInt64, false},
      },
      0);
  PRESERIAL_CHECK(schema.ok());
  PRESERIAL_CHECK(sys->db->CreateTable(kTable, std::move(schema).value()).ok());
  sys->service = std::make_unique<gtm::GtmService>(sys->db.get());
  for (size_t i = 0; i < kObjects; ++i) {
    const Value key = Value::Int(static_cast<int64_t>(i));
    PRESERIAL_CHECK(
        sys->db->InsertRow(kTable, storage::Row({key, Value::Int(kInitialQty)}))
            .ok());
    sys->ids.push_back(std::string(kTable) + "/" + std::to_string(i));
    PRESERIAL_CHECK(
        sys->service->gtm()->RegisterObject(sys->ids.back(), kTable, key,
                                            {kColQty})
            .ok());
  }
  sys->committed_subs.assign(kObjects, 0);

  InputRng rng(options.seed);
  const std::vector<std::vector<Step>> warm =
      MakePlans(&rng, Scaled(options, kWarmTxns), threads);
  Phase warm_phase = RunPhase(sys.get(), warm, /*chunked=*/threads == 1);
  sys->warm_failed = warm_phase.failed;
  sys->warm_chunks = std::move(warm_phase.chunks);
  sys->measured = MakePlans(&rng, measured, threads);
  return sys;
}

// Every object's final quantity must be its initial quantity minus the
// bookings committed on it, in the database and in X_permanent.
void CheckOutputs(System* sys, const Phase& phase, int64_t measured,
                  Report* report) {
  report->CountFailed(sys->warm_failed + phase.failed);
  if (phase.committed + phase.failed != measured) {
    report->Fail("measured transactions finished " +
                 std::to_string(phase.committed + phase.failed) + " of " +
                 std::to_string(measured));
  }
  const gtm::Gtm* g = sys->service->gtm();
  int64_t mismatches = 0;
  for (size_t o = 0; o < kObjects; ++o) {
    const int64_t expected = kInitialQty - sys->committed_subs[o];
    preserial::Result<Value> cell =
        sys->db->GetTable(kTable).value()->GetColumnByKey(
            Value::Int(static_cast<int64_t>(o)), kColQty);
    preserial::Result<Value> cached = g->PermanentValue(sys->ids[o], 0);
    if (!cell.ok() || !cached.ok() || cell.value().as_int() != expected ||
        cached.value().as_int() != expected) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " objects do not hold initial quantity minus committed "
                 "bookings");
  }
}

}  // namespace

Report RunSvcWide(const RunOptions& options) {
  Report report("svc_wide");
  const int64_t measured = MeasuredCount(options, kNominalRate);
  const int64_t per_chunk = measured / kChunks;
  report.set_attempted(measured);  // The traced run measures once.

  if (!options.trace) {
    ReportRepetitions(measured, /*virtual_time=*/false, [&] {
      const SetupStart start;
      std::unique_ptr<System> sys = SetUp(options, measured, 1, false);
      Repetition rep;
      FinishSetup(start, sys->warm_chunks, &rep);
      const int64_t heap_before = LiveHeapBytes();
      {
        const Phase phase = RunPhase(sys.get(), sys->measured, true);
        CheckOutputs(sys.get(), phase, measured, &report);
        rep.committed = phase.committed;
        rep.txn_per_cpu_s = phase.chunks.MedianRate(per_chunk);
        rep.host_ref_ms = phase.chunks.MedianReferenceMs();
        // Begin-to-commit CPU time at the reference host's speed: the
        // median over chunks of each chunk's mean and 99th percentile.
        rep.latency_mean_ms = phase.MedianOverChunks(Mean);
        rep.latency_p99_ms = phase.MedianOverChunks(P99);
        rep.info = {
            {"txn_per_s.wall_chunks",
             {phase.chunks.MedianWallRate(per_chunk), "txn/s"}},
            {"txn_per_s.wall_whole_phase", {phase.WallRate(), "txn/s"}},
            {"txn_cpu_p50_us", {1e-3 * Percentile(phase.cpu_ns, 0.5), "us"}},
            {"txn_cpu_p99_us", {1e-3 * Percentile(phase.cpu_ns, 0.99), "us"}},
        };
      }
      // Read once the phase's own records are freed, so only what the
      // service kept counts.
      rep.heap_mb_per_ktxn = HeapGrowthMbPerKtxn(heap_before, measured);
      return rep;
    }, &report);
    return report;
  }

  double untraced_txn_per_cpu_s = 0;
  {
    std::unique_ptr<System> sys = SetUp(options, measured, 1, false);
    untraced_txn_per_cpu_s =
        RunPhase(sys.get(), sys->measured, true).chunks.MedianRate(per_chunk);
  }
  // The same inputs, traced, at one client per core and at one client,
  // for the scaling ratio: wall-clock throughput of the whole phase.
  auto traced_rate = [&](int clients) {
    std::unique_ptr<System> sys = SetUp(options, measured, clients, false);
    Tracer::Clear();
    Tracer::Enable(true);
    const double rate = RunPhase(sys.get(), sys->measured, false).WallRate();
    Tracer::Enable(false);
    return rate;
  };
  const double nproc_txn_per_s = traced_rate(Nproc());
  const double single_txn_per_s = traced_rate(1);

  std::unique_ptr<System> sys = SetUp(options, measured, 1, true);
  const gtm::Gtm* g = sys->service->gtm();
  const gtm::GtmCounters before = g->metrics().counters();
  const CountingWal::Counts wal_before = sys->wal->counts();
  Tracer::Clear();
  Tracer::Enable(true);
  const Phase phase = RunPhase(sys.get(), sys->measured, true);
  Tracer::Enable(false);
  CheckOutputs(sys.get(), phase, measured, &report);
  PrintTenths("svc_wide", phase.chunks, per_chunk);

  const std::vector<SpanStats> spans = AggregateSpans();
  auto durations_us = [&](SpanKind k) {
    std::vector<double> out;
    for (int64_t ns : spans[static_cast<size_t>(k)].durations_ns) {
      out.push_back(1e-3 * static_cast<double>(ns));
    }
    return out;
  };
  const gtm::GtmCounters& c = g->metrics().counters();
  const double commits = static_cast<double>(c.committed - before.committed);
  const GtmState state = ReadGtmState(*g);
  const double traced_txn_per_cpu_s = phase.chunks.MedianRate(per_chunk);
  const std::vector<double> invoke_us = durations_us(SpanKind::kSvcInvoke);
  const std::vector<double> commit_us = durations_us(SpanKind::kSvcCommit);

  std::map<std::string, double> v;
  v["gtm.invoke.wait_ratio"] =
      Ratio(static_cast<double>(c.waits - before.waits),
            static_cast<double>(c.invocations - before.invocations));
  v["gtm.invoke.shared_ratio"] =
      Ratio(static_cast<double>(c.shared_grants - before.shared_grants),
            static_cast<double>(c.invocations - before.invocations));
  v["gtm.state.committed_entries"] =
      static_cast<double>(state.committed_entries);
  v["gtm.state.finished_txns"] = static_cast<double>(state.finished_txns);
  v["gtm.service.begin.us_p50"] =
      Percentile(durations_us(SpanKind::kSvcBegin), 0.5);
  v["gtm.service.invoke.us_p50"] = Percentile(invoke_us, 0.5);
  v["gtm.service.commit.us_p50"] = Percentile(commit_us, 0.5);
  v["gtm.service.invoke.us_p99"] = Percentile(invoke_us, 0.99);
  v["gtm.service.commit.us_p99"] = Percentile(commit_us, 0.99);
  v["gtm.service.scaling"] = nproc_txn_per_s / single_txn_per_s;
  v["semantics.reconciliations_per_commit"] = Ratio(
      static_cast<double>(c.reconciliations - before.reconciliations), commits);
  AddWalLayerMetrics(wal_before, sys->wal->counts(), commits, spans, &v);
  v["storage.sst.cells_per_commit"] = Ratio(
      static_cast<double>(c.sst_cells_written - before.sst_cells_written),
      commits);
  v["storage.sst.retries"] =
      static_cast<double>(c.sst_retries - before.sst_retries);
  v["obs.bench_trace_overhead"] =
      untraced_txn_per_cpu_s / traced_txn_per_cpu_s - 1;
  report.Info("txn_per_s.nproc_threads", nproc_txn_per_s, "txn/s", measured);
  report.Info("txn_per_s.1_thread", single_txn_per_s, "txn/s", measured);
  report.Info("txn_per_cpu_s.traced", traced_txn_per_cpu_s, "txn/s",
              measured);
  FinishTracedRun(options, v, &report);
  return report;
}

}  // namespace perfbench
