// Ablation: primary failover under sync vs async log shipping. The lossy
// Sec. VI-B arrival sequence runs against a replica group; at --fail-at the
// primary is killed and a backup is promoted after the detection delay.
// Sync shipping acknowledges a command only after every live backup
// applied it, so the promoted backup knows every Sleeping transaction the
// dead primary knew — preserved is 100% by construction. Async shipping
// trades that for lower command latency: the promotion fences off the
// unreplicated log suffix, and Sleeping transactions parked inside it are
// lost. The table and JSON report failover latency, the Sleeping
// preserved/lost split, replication lag at the kill and the usual commit
// counts.
//
// Knobs: --replicas=N (backups per group), --ship-mode=sync|async|both,
// --fail-at=T (virtual seconds; <= 0 disables the kill).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "workload/gtm_experiment.h"

int main(int argc, char** argv) {
  using namespace preserial;

  size_t replicas = 2;
  double fail_at = 60.0;
  std::vector<replica::ShipMode> modes = {replica::ShipMode::kSync,
                                          replica::ShipMode::kAsync};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--replicas=", 11) == 0) {
      replicas = static_cast<size_t>(std::atoll(argv[i] + 11));
    } else if (std::strncmp(argv[i], "--fail-at=", 10) == 0) {
      fail_at = std::atof(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--ship-mode=sync") == 0) {
      modes = {replica::ShipMode::kSync};
    } else if (std::strcmp(argv[i], "--ship-mode=async") == 0) {
      modes = {replica::ShipMode::kAsync};
    } else if (std::strcmp(argv[i], "--ship-mode=both") == 0) {
      modes = {replica::ShipMode::kSync, replica::ShipMode::kAsync};
    } else if (std::strncmp(argv[i], "--trace", 7) == 0 ||
               std::strncmp(argv[i], "--obs-out=", 10) == 0) {
      // Handled by ParseObsFlags below.
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--replicas=N] [--ship-mode=sync|async|both] "
          "[--fail-at=T] [--trace[=N]] [--obs-out=PREFIX]\n",
          argv[0]);
      return 2;
    }
  }
  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  PRESERIAL_CHECK(replicas >= 1) << "need at least one backup to promote";

  workload::GtmExperimentSpec spec;
  spec.num_txns = 400;
  spec.num_objects = 5;
  spec.alpha = 0.7;
  spec.beta = 0.0;  // Outages come from the channel, not the plan.
  spec.interarrival = 0.5;
  spec.work_time = 2.0;
  spec.seed = 42;
  // Lossy enough that retry budgets run out and sessions park in Sleep —
  // the population the failover must not lose.
  workload::ChannelSpec& channel = spec.channel.emplace();
  channel.loss = 0.35;
  channel.duplicate = 0.1;
  channel.reorder = 0.1;
  channel.delay_mean = 0.05;
  channel.request_timeout = 1.0;
  channel.max_attempts = 3;
  channel.reconnect_delay = 15.0;
  auto& replicated = spec.topology.emplace<workload::ReplicatedTopology>();
  replicated.num_backups = replicas;
  // The same flaky ship link for both modes: sync rides it out inline
  // (resends before acking the client), async accumulates lag.
  replicated.ship.loss = 0.2;
  replicated.ship.duplicate = 0.05;
  replicated.pump_interval = 0.5;
  replicated.fail_at = fail_at;
  replicated.detect_delay = 1.0;
  auto with_ship_mode = [&spec](replica::ShipMode mode) {
    workload::GtmExperimentSpec s = spec;
    std::get<workload::ReplicatedTopology>(s.topology).ship.mode = mode;
    return s;
  };

  bench::Report report("ablation_failover");
  report.Section(
      StrFormat("Ablation: failover at t=%.0f — sync vs async shipping "
                "(%zu backups)",
                fail_at, replicas),
      {"ship", "commit%", "failover s", "sleep@kill", "preserved", "lost",
       "lag@kill", "truncated"},
      12);
  for (replica::ShipMode mode : modes) {
    const workload::GtmExperimentResult r =
        RunGtmExperiment(with_ship_mode(mode));
    const workload::FailoverReport& f = r.failover;
    const replica::PromotionReport p =
        f.promotion.value_or(replica::PromotionReport{});
    const double n = static_cast<double>(spec.num_txns);
    report.BeginRow();
    report.Str("ship_mode", replica::ShipModeName(mode));
    report.TableOnly(bench::Num(100.0 * r.run.committed / n, 2));
    report.Num("failover_latency_s", f.latency, 2);
    report.Int("sleeping_at_kill", p.sleeping_at_failure);
    report.Int("sleeping_preserved", p.sleeping_preserved);
    report.Int("sleeping_lost", p.sleeping_lost);
    report.Int("replication_lag_at_kill", f.replication_lag_at_kill);
    report.Int("truncated_records", static_cast<int64_t>(p.truncated_records));
    report.JsonInt("failover_ran", f.promotion ? 1 : 0);
    report.JsonNum("preserved_pct",
                   p.sleeping_at_failure > 0
                       ? 100.0 * static_cast<double>(p.sleeping_preserved) /
                             static_cast<double>(p.sleeping_at_failure)
                       : 100.0,
                   2);
    report.JsonInt("committed", r.run.committed);
    report.JsonInt("aborted", r.run.aborted);
    report.JsonInt("retries", r.run.retries);
    report.JsonInt("degrades", r.run.degraded_to_sleep);
    report.JsonInt("committed_subtracts",
                   r.run.CommittedWithTag(workload::kTagSubtract));
    report.JsonInt("server_committed_subtracts", f.server_committed_subtracts);
    report.JsonInt("quantity_consumed", r.quantity_consumed);
    report.JsonInt("duplicates_suppressed",
                   r.snapshot.counters.duplicates_suppressed);
    report.JsonInt("final_epoch", static_cast<int64_t>(f.final_epoch));
    report.BeginObject("ship");
    report.JsonInt("records_shipped", f.ship.records_shipped);
    report.JsonInt("records_acked", f.ship.records_acked);
    report.JsonInt("resends", f.ship.resends);
    report.JsonInt("duplicates_delivered", f.ship.duplicates_delivered);
    report.JsonInt("record_losses", f.ship.record_losses);
    report.JsonInt("ack_losses", f.ship.ack_losses);
    report.EndObject();
    report.EndRow();
  }

  report.Note(
      "shape check: sync shipping never loses a Sleeping transaction "
      "(preserved == at-kill, lag 0); async fences off the unreplicated "
      "suffix at promotion, so lag at the kill turns into truncated "
      "records and potentially lost sleepers.");
  report.Finish();

  bench::RunTraced(obs, with_ship_mode(replica::ShipMode::kAsync));
  return 0;
}
