// Macro-benchmark of the paper's Sec. II motivating scenario: package tours
// (flight -> hotel -> museum -> car, think time between stops) as multi-step
// long running transactions, GTM vs. strict 2PL, with and without
// disconnections. The paper's whole pitch in one table: tours are mutually
// compatible bookings, so the GTM runs them wait-free where 2PL serializes
// every shared stop across the tours' full think time.

#include <cstdio>

#include "bench_util.h"
#include "workload/travel_agency.h"

int main() {
  using namespace preserial;
  using workload::BaselineResult;
  using workload::GtmExperimentResult;
  using workload::RunStats;
  using workload::TourWorkloadSpec;

  TourWorkloadSpec base;
  base.num_tours = 400;
  base.interarrival = 0.5;
  base.think_time = 2.0;
  base.final_think = 2.0;
  base.disconnect_mean = 15.0;
  base.seed = 42;
  // Ample stock so the table isolates concurrency effects; the scarce
  // variant below shows the stock-out behaviour.
  base.agency.seats_per_flight = 1000;
  base.agency.rooms_per_hotel = 1000;
  base.agency.tickets_per_museum = 1000;
  base.agency.cars_per_depot = 1000;

  bench::Banner(
      "Package tours (4 bookings + think time), 400 tours, GTM vs 2PL");
  bench::TablePrinter table({"beta", "engine", "committed", "abort%",
                             "avg tour (s)", "p99 (s)", "waits"},
                            13);
  table.PrintHeader();
  auto row = [&table](double beta, const char* engine, const RunStats& run,
                      int64_t waits) {
    table.PrintRow({bench::Num(beta, 1), engine, bench::Num(run.committed, 0),
                    bench::Num(run.AbortPercent(), 2),
                    bench::Num(run.AvgLatency(), 2),
                    bench::Num(run.latency_committed.p99(), 2),
                    bench::Num(waits, 0)});
  };
  for (double beta : {0.0, 0.1, 0.3}) {
    TourWorkloadSpec spec = base;
    spec.beta = beta;
    const GtmExperimentResult g = RunGtmTourExperiment(spec);
    row(beta, "GTM", g.run, g.snapshot.counters.waits);
    const BaselineResult t = RunTwoPlTourExperiment(spec,
                                                    /*lock_wait_timeout=*/60.0,
                                                    /*idle_timeout=*/20.0);
    row(beta, "2PL", t.run, t.two_pl.lock_waits);
  }
  std::puts(
      "\nshape check: GTM tours never wait (compatible bookings share every "
      "counter) and survive disconnections; 2PL tours convoy behind each "
      "other's think time and lose disconnected holders to the idle "
      "timeout.");

  bench::Banner("Scarce inventory: 400 tours chasing 120 cars (CHECK >= 0)");
  TourWorkloadSpec scarce = base;
  scarce.beta = 0.0;
  scarce.agency = workload::TravelAgencyConfig{};  // Default small stock.
  bench::TablePrinter table2({"engine", "committed", "aborted", "abort%"},
                             13);
  table2.PrintHeader();
  auto row2 = [&table2](const char* engine, const RunStats& run) {
    table2.PrintRow({engine, bench::Num(run.committed, 0),
                     bench::Num(run.aborted, 0),
                     bench::Num(run.AbortPercent(), 2)});
  };
  row2("GTM", RunGtmTourExperiment(scarce).run);
  row2("2PL", RunTwoPlTourExperiment(scarce, 60.0, 20.0).run);
  std::puts(
      "\nnobody oversells: the committed count is capped by the car stock "
      "in both engines (the SST / data layer enforces the constraint).");
  return 0;
}
