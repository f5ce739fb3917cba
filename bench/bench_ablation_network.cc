// Ablation: wireless latency. Each request pays a sampled one-way delay
// before reaching the middleware ("lengthy transmission delay of some
// networks", paper Sec. I). Longer exposure windows mean transactions
// overlap more, so contention grows — much faster for 2PL (serialized
// writers) than for the GTM (compatible writers share).

#include <cstdio>

#include "bench_util.h"
#include "workload/gtm_experiment.h"

int main(int argc, char** argv) {
  using namespace preserial;
  using workload::GtmExperimentResult;
  using workload::GtmExperimentSpec;
  using workload::TwoPlPolicy;

  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  GtmExperimentSpec base;
  base.num_txns = 800;
  base.num_objects = 5;
  base.alpha = 0.7;
  base.beta = 0.05;
  base.interarrival = 0.5;
  base.work_time = 2.0;
  base.seed = 42;

  TwoPlPolicy policy;
  policy.lock_wait_timeout = 30.0;
  policy.idle_timeout = 30.0;

  bench::Banner(
      "Ablation: mean one-way wireless latency (avg exec time / waits)");
  bench::TablePrinter table({"latency (s)", "GTM exec", "GTM waits",
                             "2PL exec", "2PL waits", "2PL abort%"},
                            13);
  table.PrintHeader();
  for (double latency : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    GtmExperimentSpec spec = base;
    spec.network_delay_mean = latency;
    const GtmExperimentResult g = RunGtmExperiment(spec);
    const workload::BaselineResult t = RunTwoPlExperiment(spec, policy);
    table.PrintRow({bench::Num(latency, 2),
                    bench::Num(g.run.AvgLatency(), 3),
                    bench::Num(g.snapshot.counters.waits, 0),
                    bench::Num(t.run.AvgLatency(), 3),
                    bench::Num(t.two_pl.lock_waits, 0),
                    bench::Num(t.run.AbortPercent(), 2)});
  }
  std::puts(
      "\nshape check: latency stretches every transaction's lock-holding "
      "window; 2PL contention compounds while the GTM's compatible shares "
      "absorb it.");

  GtmExperimentSpec traced = base;
  traced.network_delay_mean = 0.5;
  bench::RunTraced(obs, traced);
  return 0;
}
