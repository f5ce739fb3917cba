#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "decorators.h"
#include "gtm/gtm.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "workload/runner.h"

namespace perfbench {

// The Sec. VI-B stream at the paper's own contention (5 objects) on one
// Gtm in virtual time, after a warm history in set-up.
Report RunSec6bHot(const RunOptions& options);
// Four-stop package tours over a 4-shard cluster whose shards are
// sync-shipping primary/backup pairs; cross-shard tours commit by 2PC.
Report RunToursReplicated(const RunOptions& options);
// The threaded GtmService, closed loop, over many objects.
Report RunSvcWide(const RunOptions& options);

// Measured transaction count: seconds x nominal rate x scale, at least 100.
int64_t MeasuredCount(const RunOptions& options, double nominal_rate);
int64_t Scaled(const RunOptions& options, int64_t count);

// Set-up plus measured phase is repeated this many times in an untraced
// run; setup_s and the timed figures are medians over the repetitions.
inline constexpr int kRepeats = 5;

// The measured phase is split into this many equal-count chunks; the rates
// are medians over chunks, so a short stall of the host moves a few chunks
// and not the reported figure.
inline constexpr int kChunks = 50;

// The clock of a measured phase. At every chunk boundary it reads the wall
// clock and the thread's CPU clock and then times a fixed host reference
// loop (integer and memory work, about 1 ms on the reference host
// described in README.md). A chunk's cost is its thread CPU time scaled by how much
// faster or slower the reference loops at its two ends ran than on the
// reference host. So time the host took the thread away does not count,
// and a host that runs every instruction slower for a while reads as the
// same work. The reference loops themselves are outside every chunk.
class ChunkClock {
 public:
  ChunkClock();

  // Records a boundary and runs the reference loop. Call it before the
  // first transaction, after the last, and at every chunk boundary between.
  void Mark();

  size_t chunks() const {
    return boundaries_.empty() ? 0 : boundaries_.size() - 1;
  }
  // Reference-host time over this host's time around chunk k (> 1 when the
  // host ran faster than the reference host).
  double Speed(size_t k) const;
  // Chunk k's thread CPU time at the reference host's speed, in ns.
  double ChunkNs(size_t k) const;
  // Median over chunks of per_chunk / ChunkNs: transactions per CPU second
  // of the reference host.
  double MedianRate(int64_t per_chunk) const;
  // Median over chunks of the wall-clock rate, for context only.
  double MedianWallRate(int64_t per_chunk) const;
  // Median time of the reference loop on this host, in ms.
  double MedianReferenceMs() const;
  // Total CPU time of the reference loops, in ns.
  double ReferenceNs() const;

 private:
  struct Boundary {
    int64_t wall_ns = 0;         // Before the reference loop.
    int64_t cpu_ns = 0;
    int64_t resume_wall_ns = 0;  // After it.
    int64_t resume_cpu_ns = 0;
  };
  std::vector<Boundary> boundaries_;
};

// Schedules kChunks + 1 simulator events that mark `clock` at the arrivals
// of transactions 0, n/kChunks, 2n/kChunks, ... n of a stream of `n`
// arrivals `interarrival` apart from `start`. The events touch nothing
// else, so the simulated run is unchanged.
void ScheduleChunkMarks(preserial::sim::Simulator* sim, double start,
                        double interarrival, int64_t n, ChunkClock* clock);

// Bytes malloc has handed out and not had back, over every arena and
// mmapped chunk. Unlike peak RSS it does not depend on how much freed heap
// earlier set-up left behind, and a single-threaded run repeats it.
int64_t LiveHeapBytes();
// Live-heap growth since `before_bytes` in MB per 1000 of `txns`.
double HeapGrowthMbPerKtxn(int64_t before_bytes, int64_t txns);

// A Database on an in-memory log. On the traced run the log is a
// CountingWal, returned through `wal`; otherwise `wal` is set to null.
std::unique_ptr<preserial::storage::Database> MakeDatabase(bool traced,
                                                           CountingWal** wal);

// When a repetition's set-up began, on the wall clock and the process's CPU
// clock.
struct SetupStart {
  int64_t wall_ns = NowNs();
  int64_t cpu_ns = ProcessCpuNs();
};

// One repetition of a workload's set-up and measured phase, with the
// figures the end-to-end metrics are built from.
struct Repetition {
  // Set-up cost at the reference host's speed: the process CPU time since
  // SetupStart minus the reference loops of the warm phase's ChunkClock,
  // scaled by their median speed. The warm phase is most of the set-up,
  // and one thread at a time runs it.
  double setup_s = 0;
  double setup_wall_s = 0;
  double txn_per_cpu_s = 0;        // ChunkClock::MedianRate.
  double host_ref_ms = 0;          // ChunkClock::MedianReferenceMs.
  double heap_mb_per_ktxn = 0;     // Live-heap growth over the phase.
  int64_t committed = 0;
  double latency_mean_ms = 0;
  double latency_p99_ms = 0;
  // Context printed from the first repetition, not part of the result.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> info;
};

// Sets rep->setup_s and rep->setup_wall_s for a set-up that began at
// `start` and has just returned; `warm` marked its warm phase.
void FinishSetup(const SetupStart& start, const ChunkClock& warm,
                 Repetition* rep);

// Runs `repeat` kRepeats times and adds the end-to-end metrics: medians
// over the repetitions, and the commit ratio over all of them. Prints the
// host reference loop's times and flags a host whose speed moved within
// the run.
// With `virtual_time`, the latencies and commit counts come from the
// simulator and must repeat exactly.
void ReportRepetitions(int64_t measured, bool virtual_time,
                       const std::function<Repetition()>& repeat,
                       Report* report);

// A simulated measured phase: GtmRunner::Run under a workload.run span.
struct SimPhase {
  double txn_per_cpu_s = 0;      // ChunkClock::MedianRate.
  double wall_txn_per_s = 0;     // ChunkClock::MedianWallRate.
  double overall_txn_per_s = 0;  // Transactions / whole phase, wall clock.
  double heap_mb_per_ktxn = 0;   // Live-heap growth per 1000 transactions.
  double host_ref_ms = 0;
};
SimPhase RunSimPhase(preserial::workload::GtmRunner* runner,
                     const ChunkClock& clock, int64_t measured);

// Completes a simulated repetition whose set-up began at `start` and has
// just returned, its warm phase marked by `warm`: runs the measured phase
// and reads the runner's outcome, latencies in virtual time.
Repetition MeasureSimRepetition(const SetupStart& start,
                                const ChunkClock& warm,
                                preserial::workload::GtmRunner* runner,
                                const ChunkClock& clock, int64_t measured);

// State-size gauges read through Gtm's public introspection calls.
struct GtmState {
  int64_t committed_entries = 0;  // Sum of X_committed sizes over objects.
  int64_t finished_txns = 0;      // Committed plus aborted transactions.
};
GtmState ReadGtmState(const preserial::gtm::Gtm& gtm);

// Sum and count of a histogram, so a phase's mean can be taken as the
// difference of two readings.
struct HistogramReading {
  double sum = 0;
  int64_t count = 0;
};
HistogramReading ReadHistogram(const preserial::Histogram& h);
double PhaseMean(const HistogramReading& before,
                 const HistogramReading& after);

// Mean duration of the last tenth of `durations_ns` over the first tenth.
double TenthGrowth(const std::vector<int64_t>& durations_ns);

// Prints throughput per tenth of the measured phase, in transactions per
// CPU second of the reference host.
void PrintTenths(const std::string& workload, const ChunkClock& clock,
                 int64_t per_chunk);

// What the traced phase of a simulated workload read around its run.
struct SimTrace {
  std::vector<SpanStats> spans;  // AggregateSpans() after the phase.
  TracedEndpoint::Counts endpoint;
  preserial::gtm::GtmCounters before;  // Gtm counters around the phase.
  preserial::gtm::GtmCounters after;
  double wait_vs_mean = 0;  // Mean virtual seconds per wait in the phase.
  GtmState state;           // Read at the end.
  int64_t measured = 0;
  double untraced_txn_per_cpu_s = 0;
  double traced_txn_per_cpu_s = 0;
};
// Fills the gtm.*, semantics.*, storage.sst.*, workload.* and obs.* entries
// that every simulated workload reports. Spans that never ran are left out,
// so they are reported as not exercised.
void AddSimLayerMetrics(const SimTrace& t, std::map<std::string, double>* v);

// Fills the storage.wal.* entries from a Database's CountingWal readings
// around a phase with `commits` GTM commits.
void AddWalLayerMetrics(const CountingWal::Counts& before,
                        const CountingWal::Counts& after, double commits,
                        const std::vector<SpanStats>& spans,
                        std::map<std::string, double>* v);

// Adds the per-layer metrics, writes the spans where asked and clears the
// tracer.
void FinishTracedRun(const RunOptions& options,
                     const std::map<std::string, double>& values,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
