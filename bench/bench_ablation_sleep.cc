// Ablation: sleeping transactions on/off. With sleeping off, a
// disconnection aborts the transaction immediately (the 2PL-style
// preventive treatment) — isolating the value of the sleep/awake protocol.

#include <cstdio>

#include "bench_util.h"
#include "workload/gtm_experiment.h"

int main(int argc, char** argv) {
  using namespace preserial;
  using workload::GtmExperimentResult;
  using workload::GtmExperimentSpec;

  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  GtmExperimentSpec base;
  base.num_txns = 1000;
  base.num_objects = 5;
  base.alpha = 0.7;
  base.interarrival = 0.5;
  base.work_time = 2.0;
  base.disconnect_mean = 10.0;
  base.seed = 42;

  gtm::GtmOptions with_sleep;
  with_sleep.sleep_enabled = true;
  gtm::GtmOptions without_sleep;
  without_sleep.sleep_enabled = false;

  bench::Banner("Ablation: sleeping transactions (abort % vs beta)");
  bench::TablePrinter table({"beta", "sleep abort%", "awake-aborts",
                             "nosleep abort%", "disc-aborts"},
                            15);
  table.PrintHeader();
  for (double beta : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    GtmExperimentSpec spec = base;
    spec.beta = beta;
    const GtmExperimentResult on = RunGtmExperiment(spec, with_sleep);
    const GtmExperimentResult off = RunGtmExperiment(spec, without_sleep);
    table.PrintRow({bench::Num(beta, 2),
                    bench::Num(on.run.AbortPercent(), 2),
                    bench::Num(on.snapshot.counters.awake_aborts, 0),
                    bench::Num(off.run.AbortPercent(), 2),
                    bench::Num(off.run.aborted, 0)});
  }
  std::puts(
      "\nshape check: without sleeping, every disconnection is an abort "
      "(abort%% tracks beta * alpha); with sleeping only the sleepers hit "
      "by an incompatible commit die.");

  GtmExperimentSpec traced = base;
  traced.beta = 0.2;
  bench::RunTraced(obs, traced, with_sleep);
  return 0;
}
