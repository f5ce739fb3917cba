// Ablation: message loss on the client<->GTM channel. Every request and
// reply crosses a channel that drops, duplicates and reorders messages;
// clients retry with exponential backoff against the GTM's idempotent
// endpoints. Sweeps the loss rate and compares the paper's discipline —
// degrade an unresponsive client to Sleep and resume later (Algorithms
// 7-10) — against the naive baseline that aborts once the retry budget is
// spent. Emits the same comparison as JSON after the table.

#include <cstdio>

#include "bench_util.h"
#include "workload/gtm_experiment.h"

int main(int argc, char** argv) {
  using namespace preserial;
  using workload::ChannelSpec;
  using workload::GtmExperimentResult;
  using workload::GtmExperimentSpec;

  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  GtmExperimentSpec base;
  base.num_txns = 800;
  base.num_objects = 5;
  base.alpha = 0.7;
  base.beta = 0.0;  // Outages come from the channel, not the plan.
  base.interarrival = 0.5;
  base.work_time = 2.0;
  base.seed = 42;

  ChannelSpec channel;
  channel.duplicate = 0.1;
  channel.reorder = 0.1;
  channel.delay_mean = 0.05;
  channel.request_timeout = 1.0;
  channel.max_attempts = 3;
  channel.reconnect_delay = 5.0;

  const double loss_rates[] = {0.0, 0.1, 0.2, 0.3, 0.4};

  bench::Report report("ablation_message_loss");
  report.Section(
      "Ablation: channel loss rate — degrade-to-Sleep vs abort-on-loss",
      {"loss", "sleep commit%", "abort commit%", "retries", "degrades",
       "dedup hits"},
      14);
  for (double loss : loss_rates) {
    GtmExperimentSpec spec = base;
    spec.channel = channel;
    spec.channel->loss = loss;
    spec.channel->degrade_to_sleep = true;
    const GtmExperimentResult degrade = RunGtmExperiment(spec);
    spec.channel->degrade_to_sleep = false;
    const GtmExperimentResult naive = RunGtmExperiment(spec);
    const int64_t dedup_hits = degrade.snapshot.counters.duplicates_suppressed;
    const double n = static_cast<double>(base.num_txns);
    report.BeginRow();
    report.Num("loss", loss, 2);
    report.TableOnly(bench::Num(100.0 * degrade.run.committed / n, 2));
    report.TableOnly(bench::Num(100.0 * naive.run.committed / n, 2));
    report.TableOnly(bench::Num(degrade.run.retries, 0));
    report.TableOnly(bench::Num(degrade.run.degraded_to_sleep, 0));
    report.TableOnly(bench::Num(dedup_hits, 0));
    report.BeginObject("degrade_to_sleep");
    report.JsonInt("committed", degrade.run.committed);
    report.JsonInt("aborted", degrade.run.aborted);
    report.JsonInt("retries", degrade.run.retries);
    report.JsonInt("degrades", degrade.run.degraded_to_sleep);
    report.JsonInt("duplicates_suppressed", dedup_hits);
    report.JsonInt("channel_dropped", degrade.channel.dropped);
    report.EndObject();
    report.BeginObject("abort_on_loss");
    report.JsonInt("committed", naive.run.committed);
    report.JsonInt("aborted", naive.run.aborted);
    report.JsonInt("retries", naive.run.retries);
    report.EndObject();
    report.EndRow();
  }

  report.Note(
      "shape check: loss leaves the degrade-to-Sleep commit rate nearly "
      "flat (silent requests park and resume) while abort-on-loss decays "
      "with the chance that some request exhausts its budget.");
  report.Finish();

  GtmExperimentSpec traced = base;
  traced.channel = channel;
  traced.channel->loss = 0.3;
  traced.channel->degrade_to_sleep = true;
  bench::RunTraced(obs, traced);
  return 0;
}
