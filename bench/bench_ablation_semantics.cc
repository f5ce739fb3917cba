// Ablation: semantic sharing on/off. With sharing off the GTM degenerates
// to an exclusive-lock middleware (only read/read shares) — isolating how
// much of the win comes from the compatibility theory itself.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "workload/gtm_experiment.h"

int main(int argc, char** argv) {
  using namespace preserial;
  using workload::GtmExperimentResult;
  using workload::GtmExperimentSpec;

  GtmExperimentSpec base;
  base.num_txns = 1000;
  base.num_objects = 5;
  base.beta = 0.05;
  base.interarrival = 0.5;
  base.work_time = 2.0;
  base.seed = 42;

  gtm::GtmOptions with_sharing;
  with_sharing.semantic_sharing = true;
  gtm::GtmOptions without_sharing;
  without_sharing.semantic_sharing = false;

  bench::Banner(
      "Ablation: semantic sharing (avg exec time s / waits vs alpha)");
  bench::TablePrinter table({"alpha", "share exec", "share waits",
                             "excl exec", "excl waits", "speedup"},
                            13);
  table.PrintHeader();
  for (double alpha : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    GtmExperimentSpec spec = base;
    spec.alpha = alpha;
    const GtmExperimentResult on = RunGtmExperiment(spec, with_sharing);
    const GtmExperimentResult off = RunGtmExperiment(spec, without_sharing);
    table.PrintRow({bench::Num(alpha, 1), bench::Num(on.run.AvgLatency(), 3),
                    bench::Num(on.snapshot.counters.waits, 0),
                    bench::Num(off.run.AvgLatency(), 3),
                    bench::Num(off.snapshot.counters.waits, 0),
                    bench::Num(off.run.AvgLatency() /
                                   std::max(1e-9, on.run.AvgLatency()),
                               2)});
  }
  std::puts(
      "\nshape check: the speedup from semantic sharing grows with alpha "
      "(more mutually-compatible subtractions).");

  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  bench::RunTraced(obs, base, with_sharing);
  return 0;
}
