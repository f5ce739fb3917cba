// Baseline triangle (paper Sec. II strategies) on the Sec. VI-B workload:
//   - GTM (this paper): semantic sharing + sleeping transactions
//   - strict 2PL: locks held across user work and disconnections
//   - freeze/OCC: no locks, frozen operations applied at commit under
//     constraints (with and without read validation)
// Reported per engine: commit/abort counts, average latency, waits.

#include <cstdio>

#include "bench_util.h"
#include "workload/gtm_experiment.h"

int main() {
  using namespace preserial;
  using workload::GtmExperimentSpec;
  using workload::RunStats;
  using workload::TwoPlPolicy;

  GtmExperimentSpec spec;
  spec.num_txns = 1000;
  spec.num_objects = 5;
  spec.alpha = 0.7;
  spec.beta = 0.1;
  spec.interarrival = 0.5;
  spec.work_time = 2.0;
  spec.disconnect_mean = 10.0;
  spec.seed = 42;

  TwoPlPolicy policy;
  policy.lock_wait_timeout = 30.0;
  policy.idle_timeout = 30.0;

  bench::Banner(
      "Baselines on the Sec. VI-B workload (alpha=0.7, beta=0.1, n=1000)");
  bench::TablePrinter table({"engine", "committed", "aborted", "abort%",
                             "avg exec (s)", "tput (txn/s)", "waits"},
                            14);
  table.PrintHeader();

  auto row = [&table](const char* name, const RunStats& run, int64_t waits) {
    table.PrintRow({name, bench::Num(run.committed, 0),
                    bench::Num(run.aborted, 0),
                    bench::Num(run.AbortPercent(), 2),
                    bench::Num(run.AvgLatency(), 3),
                    bench::Num(run.Throughput(), 3), bench::Num(waits, 0)});
  };
  const workload::GtmExperimentResult g = RunGtmExperiment(spec);
  row("GTM", g.run, g.snapshot.counters.waits);
  const workload::BaselineResult t = RunTwoPlExperiment(spec, policy);
  row("strict 2PL", t.run, t.two_pl.lock_waits);
  row("freeze/OCC", RunOccExperiment(spec, false).run, 0);
  row("OCC+validate", RunOccExperiment(spec, true).run, 0);

  bench::Banner("Scarce inventory variant (qty=120 across 5 objects, "
                "constraint on)");
  GtmExperimentSpec scarce = spec;
  scarce.alpha = 1.0;
  scarce.beta = 0.0;
  scarce.initial_quantity = 120;
  scarce.add_quantity_constraint = true;
  bench::TablePrinter table2({"engine", "committed", "aborted", "abort%"},
                             14);
  table2.PrintHeader();
  auto row2 = [&table2](const char* name, const RunStats& run) {
    table2.PrintRow({name, bench::Num(run.committed, 0),
                     bench::Num(run.aborted, 0),
                     bench::Num(run.AbortPercent(), 2)});
  };
  row2("GTM", RunGtmExperiment(scarce).run);
  gtm::GtmOptions admission;
  admission.constraint_aware_admission = true;
  row2("GTM+admission", RunGtmExperiment(scarce, admission).run);
  row2("strict 2PL", RunTwoPlExperiment(scarce, policy).run);
  row2("freeze/OCC", RunOccExperiment(scarce, false).run);
  return 0;
}
