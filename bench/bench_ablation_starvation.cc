// Ablation: starvation guard (paper Sec. VII mitigation 1). A stream of
// mutually-compatible subtractions can starve a waiting assignment forever;
// the lock-deny threshold forces newcomers to queue once enough
// incompatible waiters have piled up. We sweep the threshold and measure
// the assignments' waiting time against total throughput.

#include <cstdio>

#include "bench_util.h"
#include "workload/gtm_experiment.h"

int main(int argc, char** argv) {
  using namespace preserial;
  using workload::GtmExperimentResult;
  using workload::GtmExperimentSpec;

  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  GtmExperimentSpec spec;
  spec.num_txns = 1000;
  spec.num_objects = 2;       // Hot objects: heavy contention.
  spec.alpha = 0.9;           // Mostly subtractions, few assignments.
  spec.beta = 0.0;
  spec.interarrival = 0.25;   // Arrivals overlap heavily with 4 s work.
  spec.work_time = 4.0;
  spec.seed = 42;

  bench::Banner(
      "Ablation: starvation guard threshold (hot objects, alpha=0.9)");
  bench::TablePrinter table({"threshold", "avg exec", "p99 exec",
                             "max exec", "starv denials", "waits"},
                            14);
  table.PrintHeader();
  for (int threshold : {0, 1, 2, 4, 8}) {
    gtm::GtmOptions options;
    options.starvation_waiter_threshold = threshold;
    const GtmExperimentResult r = RunGtmExperiment(spec, options);
    table.PrintRow({bench::Num(threshold, 0),
                    bench::Num(r.run.AvgLatency(), 3),
                    bench::Num(r.run.latency_committed.p99(), 3),
                    bench::Num(r.run.latency_committed.Percentile(1.0), 3),
                    bench::Num(r.snapshot.counters.starvation_denials, 0),
                    bench::Num(r.snapshot.counters.waits, 0)});
  }
  std::puts(
      "\nshape check: threshold 0 (guard off) lets compatible newcomers "
      "stream past queued assignments, inflating tail latency; small "
      "thresholds cap the tail at some cost in mean latency.");

  gtm::GtmOptions traced;
  traced.starvation_waiter_threshold = 2;
  bench::RunTraced(obs, spec, traced);
  return 0;
}
