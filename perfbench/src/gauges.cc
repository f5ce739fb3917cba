#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace storage = preserial::storage;
using preserial::gtm::Gtm;
using preserial::gtm::ObjectState;
using preserial::gtm::TxnState;

namespace {

// The host reference loop's length and table size (2 MiB, the size of one
// core's L2 cache on the reference host), and its median thread CPU time on
// the reference host described in README.md.
constexpr int kHostReferenceIterations = 200000;
constexpr uint64_t kHostReferenceTableWords = uint64_t{1} << 18;
constexpr double kHostReferenceNominalMs = 0.5;
// A shift in host speed beyond the widest bound in BENCHMARK.json is
// flagged: the timed figures are scaled by the reference loop, but a
// slowdown the loop does not share may remain in them.
constexpr double kHostShiftFlag = 0.25;

std::vector<uint64_t>& HostReferenceTable() {
  static auto* table = new std::vector<uint64_t>(kHostReferenceTableWords);
  return *table;
}

// A fixed amount of integer and memory work: a linear congruential stream
// scattering additions over an 8 MiB table. The program's time goes to
// scans and lookups over working sets of a few MiB, and its chunk times
// follow this loop more closely than a loop over a 512 KiB table or a
// pointer chase through DRAM (README.md). Every call touches the same
// entries, so ChunkClock::Mark runs it once to bring them back into the
// caches after the program's own work, and times a second run: its time
// then depends on the host and not on how much memory the program touched
// before it.
void RunHostReference() {
  std::vector<uint64_t>& table = HostReferenceTable();
  constexpr uint64_t kMask = kHostReferenceTableWords - 1;
  uint64_t x = 1;
  for (int i = 0; i < kHostReferenceIterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 40) & kMask] += x;
  }
  volatile uint64_t sink = table[x & kMask];
  (void)sink;
}

// Prints the host reference times of the repetitions, and flags a run whose
// host changed speed within the run or runs at another speed than the
// reference host.
void ReportHostReference(const std::vector<double>& host_ms, Report* report) {
  const double median = Median(host_ms);
  const auto [lo, hi] = std::minmax_element(host_ms.begin(), host_ms.end());
  const double shift = *hi / *lo - 1;
  const double speed = kHostReferenceNominalMs / median;
  const int64_t n = static_cast<int64_t>(host_ms.size());
  report->Info("host.ref_ms", median, "ms", n);
  report->Info("host.ref_shift", shift, "fraction", n);
  report->Info("host.speed_vs_reference", speed, "ratio", n);
  char line[256];
  if (shift > kHostShiftFlag) {
    std::snprintf(line, sizeof(line),
                  "HOST SHIFT: the reference loop's time moved %.0f%% "
                  "between repetitions of this run",
                  100 * shift);
    report->Note(line);
  }
  if (speed > 1 + kHostShiftFlag || speed < 1 / (1 + kHostShiftFlag)) {
    std::snprintf(line, sizeof(line),
                  "HOST SPEED: the host ran the reference loop at %.2fx the "
                  "reference host's speed",
                  speed);
    report->Note(line);
  }
}

}  // namespace

int64_t Scaled(const RunOptions& options, int64_t count) {
  return std::max<int64_t>(
      100, std::llround(static_cast<double>(count) * options.scale));
}

int64_t MeasuredCount(const RunOptions& options, double nominal_rate) {
  return Scaled(options, std::llround(options.seconds * nominal_rate));
}

ChunkClock::ChunkClock() {
  boundaries_.reserve(kChunks + 1);
  HostReferenceTable();  // Allocated now, not inside a measured phase.
}

void ChunkClock::Mark() {
  Boundary b;
  b.wall_ns = NowNs();
  RunHostReference();
  b.cpu_ns = ThreadCpuNs();
  RunHostReference();
  b.resume_cpu_ns = ThreadCpuNs();
  b.resume_wall_ns = NowNs();
  boundaries_.push_back(b);
}

double ChunkClock::Speed(size_t k) const {
  const auto ref_ns = [this](size_t i) {
    return static_cast<double>(boundaries_[i].resume_cpu_ns -
                               boundaries_[i].cpu_ns);
  };
  return Ratio(2e6 * kHostReferenceNominalMs, ref_ns(k) + ref_ns(k + 1));
}

double ChunkClock::ChunkNs(size_t k) const {
  return static_cast<double>(boundaries_[k + 1].cpu_ns -
                             boundaries_[k].resume_cpu_ns) *
         Speed(k);
}

double ChunkClock::MedianRate(int64_t per_chunk) const {
  std::vector<double> rates;
  for (size_t k = 0; k < chunks(); ++k) {
    rates.push_back(Ratio(1e9 * static_cast<double>(per_chunk), ChunkNs(k)));
  }
  return Median(std::move(rates));
}

double ChunkClock::MedianWallRate(int64_t per_chunk) const {
  std::vector<double> rates;
  for (size_t k = 0; k < chunks(); ++k) {
    rates.push_back(
        Ratio(1e9 * static_cast<double>(per_chunk),
              static_cast<double>(boundaries_[k + 1].wall_ns -
                                  boundaries_[k].resume_wall_ns)));
  }
  return Median(std::move(rates));
}

double ChunkClock::ReferenceNs() const {
  double ns = 0;
  for (const Boundary& b : boundaries_) {
    ns += static_cast<double>(b.resume_cpu_ns - b.cpu_ns);
  }
  return ns;
}

double ChunkClock::MedianReferenceMs() const {
  std::vector<double> ms;
  for (const Boundary& b : boundaries_) {
    ms.push_back(1e-6 * static_cast<double>(b.resume_cpu_ns - b.cpu_ns));
  }
  return Median(std::move(ms));
}

void ScheduleChunkMarks(preserial::sim::Simulator* sim, double start,
                        double interarrival, int64_t n, ChunkClock* clock) {
  const int64_t per_chunk = n / kChunks;
  for (int64_t k = 0; k <= kChunks; ++k) {
    sim->At(start + static_cast<double>(k * per_chunk) * interarrival,
            [clock] { clock->Mark(); });
  }
}

int64_t LiveHeapBytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<int64_t>(m.uordblks + m.hblkhd);
}

double HeapGrowthMbPerKtxn(int64_t before_bytes, int64_t txns) {
  return static_cast<double>(LiveHeapBytes() - before_bytes) / 1048576.0 /
         (static_cast<double>(txns) / 1000.0);
}

std::unique_ptr<storage::Database> MakeDatabase(bool traced,
                                                CountingWal** wal) {
  *wal = nullptr;
  std::unique_ptr<storage::Database> db;
  if (traced) {
    auto counting = std::make_unique<CountingWal>(SpanKind::kWalAppend,
                                                  SpanKind::kWalSync);
    *wal = counting.get();
    db = std::make_unique<storage::Database>(std::move(counting));
  } else {
    db = std::make_unique<storage::Database>();
  }
  PRESERIAL_CHECK(db->Open().ok());
  return db;
}

void FinishSetup(const SetupStart& start, const ChunkClock& warm,
                 Repetition* rep) {
  const double cpu_ns =
      static_cast<double>(ProcessCpuNs() - start.cpu_ns) - warm.ReferenceNs();
  rep->setup_s =
      1e-9 * cpu_ns * kHostReferenceNominalMs / warm.MedianReferenceMs();
  rep->setup_wall_s = 1e-9 * static_cast<double>(NowNs() - start.wall_ns);
}

void ReportRepetitions(int64_t measured, bool virtual_time,
                       const std::function<Repetition()>& repeat,
                       Report* report) {
  std::vector<double> host_ms;
  std::vector<double> setups;
  std::vector<double> setups_wall;
  std::vector<double> rates;
  std::vector<double> heaps;
  std::vector<double> means;
  std::vector<double> p99s;
  int64_t committed = 0;
  Repetition first;
  for (int i = 0; i < kRepeats; ++i) {
    Repetition rep = repeat();
    host_ms.push_back(rep.host_ref_ms);
    setups.push_back(rep.setup_s);
    setups_wall.push_back(rep.setup_wall_s);
    rates.push_back(rep.txn_per_cpu_s);
    heaps.push_back(rep.heap_mb_per_ktxn);
    means.push_back(rep.latency_mean_ms);
    p99s.push_back(rep.latency_p99_ms);
    committed += rep.committed;
    if (i == 0) {
      first = std::move(rep);
    } else if (virtual_time && (rep.committed != first.committed ||
                                rep.latency_mean_ms != first.latency_mean_ms ||
                                rep.latency_p99_ms != first.latency_p99_ms)) {
      report->Fail("repetition " + std::to_string(i + 1) +
                   " did not reproduce the virtual-time outputs");
    }
  }
  report->set_attempted(measured * kRepeats);
  for (const auto& [name, value] : first.info) {
    report->Info(name, value.first, value.second, measured);
  }
  report->Info("setup_s.wall", Median(setups_wall), "s", kRepeats);
  ReportHostReference(host_ms, report);
  report->Add("setup_s", Median(setups), "s", kRepeats);
  report->Add("txn_per_cpu_s", Median(rates), "txn/s", kRepeats * kChunks);
  report->Add("commit_ratio",
              Ratio(static_cast<double>(committed),
                    static_cast<double>(measured * kRepeats)),
              "fraction", measured * kRepeats);
  report->Add("rss_mb_per_ktxn", Median(heaps), "MB/ktxn", kRepeats);
  report->Add("latency_mean_ms", Median(means), "ms", kRepeats);
  report->Add("latency_p99_ms", Median(p99s), "ms", kRepeats);
}

SimPhase RunSimPhase(preserial::workload::GtmRunner* runner,
                     const ChunkClock& clock, int64_t measured) {
  const int64_t heap_before = LiveHeapBytes();
  const int64_t start = NowNs();
  {
    ScopedSpan span(SpanKind::kRun);
    runner->Run();
  }
  const int64_t end = NowNs();
  SimPhase phase;
  phase.heap_mb_per_ktxn = HeapGrowthMbPerKtxn(heap_before, measured);
  phase.txn_per_cpu_s = clock.MedianRate(measured / kChunks);
  phase.wall_txn_per_s = clock.MedianWallRate(measured / kChunks);
  phase.overall_txn_per_s = Ratio(1e9 * static_cast<double>(measured),
                                  static_cast<double>(end - start));
  phase.host_ref_ms = clock.MedianReferenceMs();
  return phase;
}

Repetition MeasureSimRepetition(const SetupStart& start,
                                const ChunkClock& warm,
                                preserial::workload::GtmRunner* runner,
                                const ChunkClock& clock, int64_t measured) {
  Repetition rep;
  FinishSetup(start, warm, &rep);
  const SimPhase phase = RunSimPhase(runner, clock, measured);
  rep.txn_per_cpu_s = phase.txn_per_cpu_s;
  rep.host_ref_ms = phase.host_ref_ms;
  rep.heap_mb_per_ktxn = phase.heap_mb_per_ktxn;
  const preserial::workload::RunStats& run = runner->stats();
  rep.committed = run.committed;
  rep.latency_mean_ms = 1e3 * run.latency_committed.mean();
  rep.latency_p99_ms = 1e3 * run.latency_committed.p99();
  rep.info = {
      {"txn_per_s.wall_chunks", {phase.wall_txn_per_s, "txn/s"}},
      {"txn_per_s.wall_whole_phase", {phase.overall_txn_per_s, "txn/s"}},
      {"vlat_p50_s", {run.latency_committed.p50(), "s"}},
      {"vlat_p99_s", {run.latency_committed.p99(), "s"}},
  };
  return rep;
}

GtmState ReadGtmState(const Gtm& gtm) {
  GtmState state;
  for (const auto& id : gtm.ObjectIds()) {
    preserial::Result<const ObjectState*> obj = gtm.GetObject(id);
    if (obj.ok()) {
      state.committed_entries +=
          static_cast<int64_t>(obj.value()->committed.size());
    }
  }
  state.finished_txns = static_cast<int64_t>(
      gtm.TransactionsInState(TxnState::kCommitted).size() +
      gtm.TransactionsInState(TxnState::kAborted).size());
  return state;
}

HistogramReading ReadHistogram(const preserial::Histogram& h) {
  return HistogramReading{h.mean() * static_cast<double>(h.count()),
                          h.count()};
}

double PhaseMean(const HistogramReading& before,
                 const HistogramReading& after) {
  return Ratio(after.sum - before.sum,
               static_cast<double>(after.count - before.count));
}

double TenthGrowth(const std::vector<int64_t>& durations_ns) {
  const size_t tenth = durations_ns.size() / 10;
  if (tenth == 0) return 0;
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < tenth; ++i) {
    first += static_cast<double>(durations_ns[i]);
    last += static_cast<double>(durations_ns[durations_ns.size() - 1 - i]);
  }
  return Ratio(last, first);
}

void PrintTenths(const std::string& workload, const ChunkClock& clock,
                 int64_t per_chunk) {
  constexpr size_t kPerTenth = kChunks / 10;
  for (size_t t = 0; t < 10 && (t + 1) * kPerTenth <= clock.chunks(); ++t) {
    double ns = 0;
    for (size_t k = t * kPerTenth; k < (t + 1) * kPerTenth; ++k) {
      ns += clock.ChunkNs(k);
    }
    std::printf("[%s] tenth %2zu/10: txn_per_cpu_s %.1f\n", workload.c_str(),
                t + 1,
                Ratio(1e9 * static_cast<double>(per_chunk * kPerTenth), ns));
  }
}

void AddSimLayerMetrics(const SimTrace& t, std::map<std::string, double>* v) {
  auto mean_us = [&](SpanKind kind, const char* name) {
    const SpanStats& s = t.spans[static_cast<size_t>(kind)];
    if (s.count > 0) (*v)[name] = s.mean_us();
  };
  mean_us(SpanKind::kBegin, "gtm.begin.us");
  mean_us(SpanKind::kInvoke, "gtm.invoke.us");
  mean_us(SpanKind::kCommit, "gtm.commit.us");
  mean_us(SpanKind::kSleep, "gtm.sleep.us");
  mean_us(SpanKind::kAwake, "gtm.awake.us");
  mean_us(SpanKind::kEvents, "gtm.events.us");
  mean_us(SpanKind::kSweep, "gtm.sweep.us");
  const preserial::gtm::GtmCounters& b = t.before;
  const preserial::gtm::GtmCounters& a = t.after;
  const double commits = static_cast<double>(a.committed - b.committed);
  (*v)["gtm.commit.us_growth"] =
      TenthGrowth(t.spans[static_cast<size_t>(SpanKind::kCommit)].durations_ns);
  (*v)["gtm.invoke.wait_ratio"] =
      Ratio(static_cast<double>(t.endpoint.invoke_waiting),
            static_cast<double>(t.endpoint.invokes));
  (*v)["gtm.wait.vs_mean"] = t.wait_vs_mean;
  (*v)["gtm.invoke.shared_ratio"] =
      Ratio(static_cast<double>(a.shared_grants - b.shared_grants),
            static_cast<double>(a.invocations - b.invocations));
  (*v)["gtm.awake.abort_ratio"] =
      Ratio(static_cast<double>(t.endpoint.awake_aborted),
            static_cast<double>(t.endpoint.awakes));
  (*v)["gtm.state.committed_entries"] =
      static_cast<double>(t.state.committed_entries);
  (*v)["gtm.state.finished_txns"] = static_cast<double>(t.state.finished_txns);
  (*v)["semantics.reconciliations_per_commit"] =
      Ratio(static_cast<double>(a.reconciliations - b.reconciliations),
            commits);
  (*v)["storage.sst.cells_per_commit"] = Ratio(
      static_cast<double>(a.sst_cells_written - b.sst_cells_written), commits);
  (*v)["storage.sst.retries"] =
      static_cast<double>(a.sst_retries - b.sst_retries);
  (*v)["workload.self_ms_per_ktxn"] =
      1e-6 *
      static_cast<double>(t.spans[static_cast<size_t>(SpanKind::kRun)].self_ns) /
      (static_cast<double>(t.measured) / 1000.0);
  (*v)["obs.bench_trace_overhead"] =
      t.untraced_txn_per_cpu_s / t.traced_txn_per_cpu_s - 1;
}

void AddWalLayerMetrics(const CountingWal::Counts& before,
                        const CountingWal::Counts& after, double commits,
                        const std::vector<SpanStats>& spans,
                        std::map<std::string, double>* v) {
  (*v)["storage.wal.appends_per_commit"] =
      Ratio(static_cast<double>(after.appends - before.appends), commits);
  (*v)["storage.wal.bytes_per_commit"] =
      Ratio(static_cast<double>(after.bytes - before.bytes), commits);
  (*v)["storage.wal.syncs_per_commit"] =
      Ratio(static_cast<double>(after.syncs - before.syncs), commits);
  (*v)["storage.wal.append_us"] =
      spans[static_cast<size_t>(SpanKind::kWalAppend)].mean_us();
}

void FinishTracedRun(const RunOptions& options,
                     const std::map<std::string, double>& values,
                     Report* report) {
  AddLayerMetrics(values, report);
  if (!options.spans_out.empty() && !Tracer::WriteCsv(options.spans_out)) {
    report->Fail("cannot write spans to " + options.spans_out);
  }
  Tracer::Clear();
}

}  // namespace perfbench
