#include "gtm/metrics.h"

#include <algorithm>

#include "common/strings.h"

namespace preserial::gtm {

namespace {

double AbortPercentOf(const GtmCounters& c) {
  if (c.begun == 0) return 0.0;
  return 100.0 * static_cast<double>(c.aborted) /
         static_cast<double>(c.begun);
}

std::string FormatSummary(const GtmCounters& c, const Histogram& exec,
                          const Histogram& wait) {
  std::string out;
  out += StrFormat(
      "txns: begun=%lld committed=%lld aborted=%lld (%.2f%%)\n",
      static_cast<long long>(c.begun), static_cast<long long>(c.committed),
      static_cast<long long>(c.aborted), AbortPercentOf(c));
  out += StrFormat(
      "invocations: total=%lld immediate=%lld shared=%lld waits=%lld\n",
      static_cast<long long>(c.invocations),
      static_cast<long long>(c.granted_immediately),
      static_cast<long long>(c.shared_grants),
      static_cast<long long>(c.waits));
  out += StrFormat(
      "sleep: sleeps=%lld awakes=%lld awake_aborts=%lld\n",
      static_cast<long long>(c.sleeps), static_cast<long long>(c.awakes),
      static_cast<long long>(c.awake_aborts));
  out += StrFormat(
      "aborts: deadlock_refusals=%lld timeout=%lld constraint=%lld "
      "user=%lld\n",
      static_cast<long long>(c.deadlock_refusals),
      static_cast<long long>(c.timeout_aborts),
      static_cast<long long>(c.constraint_aborts),
      static_cast<long long>(c.user_aborts));
  out += StrFormat(
      "2pc: prepares=%lld prepared_aborts=%lld reconciliations=%lld\n",
      static_cast<long long>(c.prepares),
      static_cast<long long>(c.prepared_aborts),
      static_cast<long long>(c.reconciliations));
  out += StrFormat("sst: executed=%lld failed=%lld retries=%lld "
                   "cells=%lld injected_failures=%lld\n",
                   static_cast<long long>(c.sst_executed),
                   static_cast<long long>(c.sst_failed),
                   static_cast<long long>(c.sst_retries),
                   static_cast<long long>(c.sst_cells_written),
                   static_cast<long long>(c.sst_injected_failures));
  out += StrFormat("dedup: duplicates_suppressed=%lld\n",
                   static_cast<long long>(c.duplicates_suppressed));
  out += StrFormat(
      "replication: lag_records=%lld lag_max_records=%lld failovers=%lld\n",
      static_cast<long long>(c.replication_lag_records),
      static_cast<long long>(c.replication_lag_max_records),
      static_cast<long long>(c.failovers_total));
  out += "exec_time: " + exec.Summary() + "\n";
  out += "wait_time: " + wait.Summary() + "\n";
  return out;
}

}  // namespace

void GtmCounters::MergeFrom(const GtmCounters& other) {
  begun += other.begun;
  committed += other.committed;
  aborted += other.aborted;
  invocations += other.invocations;
  granted_immediately += other.granted_immediately;
  shared_grants += other.shared_grants;
  waits += other.waits;
  sleeps += other.sleeps;
  awakes += other.awakes;
  awake_aborts += other.awake_aborts;
  deadlock_refusals += other.deadlock_refusals;
  deadlock_aborts += other.deadlock_aborts;
  timeout_aborts += other.timeout_aborts;
  constraint_aborts += other.constraint_aborts;
  disconnect_aborts += other.disconnect_aborts;
  user_aborts += other.user_aborts;
  prepares += other.prepares;
  prepared_aborts += other.prepared_aborts;
  reconciliations += other.reconciliations;
  sst_executed += other.sst_executed;
  sst_failed += other.sst_failed;
  sst_retries += other.sst_retries;
  sst_cells_written += other.sst_cells_written;
  sst_injected_failures += other.sst_injected_failures;
  duplicates_suppressed += other.duplicates_suppressed;
  starvation_denials += other.starvation_denials;
  admission_denials += other.admission_denials;
  replication_lag_records += other.replication_lag_records;
  failovers_total += other.failovers_total;
  replication_lag_max_records =
      std::max(replication_lag_max_records, other.replication_lag_max_records);
}

void GtmMetrics::Snapshot::MergeFrom(const Snapshot& other) {
  counters.MergeFrom(other.counters);
  execution_time.MergeFrom(other.execution_time);
  wait_time.MergeFrom(other.wait_time);
}

std::string GtmMetrics::Snapshot::Summary() const {
  return FormatSummary(counters, execution_time, wait_time);
}

GtmMetrics::Snapshot GtmMetrics::TakeSnapshot() const {
  return Snapshot{counters_, execution_time_, wait_time_};
}

std::string GtmMetrics::Summary() const {
  return FormatSummary(counters_, execution_time_, wait_time_);
}

}  // namespace preserial::gtm
