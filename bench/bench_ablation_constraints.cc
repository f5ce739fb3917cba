// Ablation: constraint-aware admission (paper Sec. VII mitigation 2).
// With scarce inventory and a CHECK constraint, concurrent compatible
// subtractors can collectively overdraw and die at SST time. The admission
// policy refuses operations whose pessimistic projection would violate the
// constraint, converting late (expensive) aborts into early refusals.

#include <cstdio>

#include "bench_util.h"
#include "workload/gtm_experiment.h"

int main(int argc, char** argv) {
  using namespace preserial;
  using workload::GtmExperimentResult;
  using workload::GtmExperimentSpec;

  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  bench::Banner(
      "Ablation: constraint-aware admission under scarce inventory");
  bench::TablePrinter table({"inventory", "policy", "committed",
                             "late aborts", "early denials", "avg exec"},
                            14);
  table.PrintHeader();
  auto scarce_spec = [](int64_t inventory) {
    GtmExperimentSpec spec;
    spec.num_txns = 500;
    spec.num_objects = 1;  // One hot flight.
    spec.alpha = 1.0;
    spec.beta = 0.0;
    spec.interarrival = 0.5;
    spec.work_time = 3.0;
    spec.initial_quantity = inventory;
    spec.add_quantity_constraint = true;
    spec.seed = 42;
    return spec;
  };
  gtm::GtmOptions on;
  on.constraint_aware_admission = true;
  for (int64_t inventory : {50, 100, 200, 400}) {
    const GtmExperimentSpec spec = scarce_spec(inventory);
    gtm::GtmOptions off;
    off.constraint_aware_admission = false;
    const GtmExperimentResult r_off = RunGtmExperiment(spec, off);
    table.PrintRow({bench::Num(inventory, 0), "off",
                    bench::Num(r_off.run.committed, 0),
                    bench::Num(r_off.run.aborted, 0),
                    bench::Num(r_off.snapshot.counters.admission_denials, 0),
                    bench::Num(r_off.run.AvgLatency(), 3)});

    const GtmExperimentResult r_on = RunGtmExperiment(spec, on);
    table.PrintRow({bench::Num(inventory, 0), "on",
                    bench::Num(r_on.run.committed, 0),
                    bench::Num(r_on.run.aborted, 0),
                    bench::Num(r_on.snapshot.counters.admission_denials, 0),
                    bench::Num(r_on.run.AvgLatency(), 3)});
  }
  std::puts(
      "\nshape check: both policies sell exactly the inventory; with the "
      "policy on, the failures move from SST-time aborts (after the user "
      "did all the work) to up-front admission denials.");

  bench::RunTraced(obs, scarce_spec(100), on);
  return 0;
}
