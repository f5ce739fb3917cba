// End-to-end transaction observability, demonstrated: replay two traced
// runs and render single transactions' causal timelines stitched from the
// exported spans of every layer.
//
//   Part 1 — lossy replicated run with a mid-run primary failover: the
//   printed timeline shows a mobile client's retries, its degrade to
//   Sleep, the log shipping, the promotion, and the eventual Awake and
//   commit against the new primary.
//
//   Part 2 — sharded run with cross-shard transactions: the timeline of
//   one global transaction fans out over shard branches and commits
//   through the coordinator's two-phase protocol.

#include <cstdio>
#include <set>
#include <vector>

#include "obs/timeline.h"
#include "workload/gtm_experiment.h"

using namespace preserial;

namespace {

// The trace with the richest story: most distinct event kinds, ties broken
// by event count.
obs::Timeline MostEventful(const std::vector<gtm::TraceEvent>& merged) {
  std::set<uint64_t> traces;
  for (const gtm::TraceEvent& e : merged) {
    if (e.trace != 0) traces.insert(e.trace);
  }
  obs::Timeline best;
  size_t best_kinds = 0;
  for (uint64_t id : traces) {
    obs::Timeline tl = obs::BuildTimeline(merged, id);
    std::set<gtm::TraceEventKind> kinds;
    for (const gtm::TraceEvent& e : tl.events) kinds.insert(e.kind);
    if (kinds.size() > best_kinds ||
        (kinds.size() == best_kinds && tl.events.size() > best.events.size())) {
      best_kinds = kinds.size();
      best = std::move(tl);
    }
  }
  return best;
}

void Print(const char* title, const obs::Timeline& tl) {
  std::printf("\n== %s (trace %llu, %zu events) ==\n%s", title,
              static_cast<unsigned long long>(tl.trace), tl.events.size(),
              tl.ToString().c_str());
}

}  // namespace

int main() {
  // --- part 1: lossy channel, replicated GTM, primary killed at t=30 -------
  workload::GtmExperimentSpec fo;
  fo.num_txns = 120;
  fo.num_objects = 5;
  fo.alpha = 0.7;
  fo.beta = 0.0;
  fo.seed = 7;
  fo.trace_capacity = 16384;
  workload::ChannelSpec& channel = fo.channel.emplace();
  channel.loss = 0.35;
  channel.delay_mean = 0.05;
  channel.request_timeout = 1.0;
  channel.max_attempts = 3;
  channel.reconnect_delay = 10.0;
  auto& replicated = fo.topology.emplace<workload::ReplicatedTopology>();
  replicated.num_backups = 1;
  replicated.ship.mode = replica::ShipMode::kSync;
  replicated.fail_at = 30.0;
  replicated.detect_delay = 1.0;

  const workload::GtmExperimentResult fr = workload::RunGtmExperiment(fo);
  std::printf("failover run: %lld committed / %lld aborted, failover %s, "
              "%zu trace events\n",
              static_cast<long long>(fr.run.committed),
              static_cast<long long>(fr.run.aborted),
              fr.failover.promotion ? "ran" : "skipped",
              fr.trace_events.size());
  Print("lossy replicated run: retries, sleep, ship, promote, awake",
        MostEventful(fr.trace_events));

  // --- part 2: 4 shards, 40% cross-shard bookings (2PC commits) ------------
  workload::GtmExperimentSpec sh;
  sh.num_txns = 200;
  sh.num_objects = 32;
  sh.alpha = 0.8;
  sh.beta = 0.1;
  sh.seed = 7;
  sh.trace_capacity = 16384;
  sh.topology =
      workload::ShardedTopology{.num_shards = 4, .cross_shard_ratio = 0.4};

  const workload::GtmExperimentResult sr = workload::RunGtmExperiment(sh);
  std::printf("\nsharded run: %lld committed, %lld 2PC commits, "
              "%zu trace events\n",
              static_cast<long long>(sr.run.committed),
              static_cast<long long>(sr.coordinator.commits),
              sr.trace_events.size());

  // Prefer a timeline that actually crossed shards and went through 2PC.
  std::set<uint64_t> traces;
  for (const gtm::TraceEvent& e : sr.trace_events) {
    if (e.trace != 0) traces.insert(e.trace);
  }
  obs::Timeline two_pc;
  for (uint64_t id : traces) {
    obs::Timeline tl = obs::BuildTimeline(sr.trace_events, id);
    if (tl.HasSequence({gtm::TraceEventKind::kTwoPcPrepare,
                        gtm::TraceEventKind::kTwoPcCommit}) &&
        tl.events.size() > two_pc.events.size()) {
      two_pc = std::move(tl);
    }
  }
  Print("cross-shard transaction: branch fan-out and two-phase commit",
        two_pc.events.empty() ? MostEventful(sr.trace_events) : two_pc);
  return 0;
}
