#ifndef PRESERIAL_GTM_METRICS_H_
#define PRESERIAL_GTM_METRICS_H_

#include <cstdint>
#include <string>

#include "common/stats.h"

namespace preserial::gtm {

// Cheap always-on counters; one instance per Gtm.
struct GtmCounters {
  int64_t begun = 0;
  int64_t committed = 0;
  int64_t aborted = 0;

  int64_t invocations = 0;
  int64_t granted_immediately = 0;
  int64_t shared_grants = 0;  // Granted while another txn held the object.
  int64_t waits = 0;

  int64_t sleeps = 0;
  int64_t awakes = 0;

  int64_t awake_aborts = 0;      // Algorithm 9, conflict during sleep.
  int64_t deadlock_refusals = 0;  // Requests refused at enqueue time.
  int64_t deadlock_aborts = 0;    // Victims of the periodic WFG sweep.
  int64_t timeout_aborts = 0;
  int64_t constraint_aborts = 0;  // SST failed a CHECK constraint.
  int64_t disconnect_aborts = 0;  // Sleep() with sleeping disabled.
  int64_t user_aborts = 0;

  // Two-phase commit (cross-shard transactions).
  int64_t prepares = 0;         // Phase-1 votes that parked in Committing.
  int64_t prepared_aborts = 0;  // Coordinator decided abort after a yes-vote.
  int64_t reconciliations = 0;  // Successful per-member merges (eqs. 1-2).

  int64_t sst_executed = 0;
  int64_t sst_failed = 0;
  int64_t sst_retries = 0;  // Transient failures absorbed by the retry policy.
  // Mirrors of the executor's own counters (synced at each commit).
  int64_t sst_cells_written = 0;
  int64_t sst_injected_failures = 0;

  // Requests answered from the per-transaction reply cache instead of
  // re-executing (at-least-once channels re-deliver; effects stay
  // exactly-once).
  int64_t duplicates_suppressed = 0;

  int64_t starvation_denials = 0;
  int64_t admission_denials = 0;  // Constraint-aware admission refusals.

  // Replication (src/replica/). `replication_lag_records` is a gauge — the
  // primary overwrites it with (last log LSN − slowest live backup's acked
  // LSN) after every ship round — and merging snapshots across replica
  // groups sums the per-group lags. `failovers_total` counts promotions
  // this Gtm won (stamped on the new primary).
  int64_t replication_lag_records = 0;
  int64_t failovers_total = 0;
  // Worst-group lag gauge: summed lag hides a single straggling group
  // behind healthy ones, so the max is tracked separately. Set alongside
  // replication_lag_records on every ship round; merging takes the max.
  int64_t replication_lag_max_records = 0;

  // Field-wise sum (replication_lag_max_records merges by max); the mirror
  // counters (sst_*) add like the rest, which is correct when each source
  // is a distinct Gtm (shard).
  void MergeFrom(const GtmCounters& other);
};

// Counters plus latency distributions (virtual-time seconds under the
// simulator).
class GtmMetrics {
 public:
  // Copyable point-in-time capture of one Gtm's metrics. Per-shard
  // snapshots merge into a cluster-wide aggregate with MergeFrom.
  struct Snapshot {
    GtmCounters counters;
    Histogram execution_time;
    Histogram wait_time;

    void MergeFrom(const Snapshot& other);
    std::string Summary() const;
  };

  GtmCounters& counters() { return counters_; }
  const GtmCounters& counters() const { return counters_; }

  Snapshot TakeSnapshot() const;

  Histogram& execution_time() { return execution_time_; }
  const Histogram& execution_time() const { return execution_time_; }

  Histogram& wait_time() { return wait_time_; }
  const Histogram& wait_time() const { return wait_time_; }

  // Multi-line human-readable dump.
  std::string Summary() const;

 private:
  GtmCounters counters_;
  Histogram execution_time_;  // Begin -> committed, committed txns only.
  Histogram wait_time_;       // Per completed wait episode.
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_METRICS_H_
