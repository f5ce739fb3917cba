#ifndef PRESERIAL_CHECK_HISTORY_H_
#define PRESERIAL_CHECK_HISTORY_H_

#include <map>
#include <vector>

#include "common/ids.h"
#include "gtm/gtm.h"
#include "gtm/managed_txn.h"
#include "gtm/trace.h"
#include "semantics/compatibility.h"
#include "storage/value.h"

namespace preserial::cluster {
class GtmCluster;
}
namespace preserial::replica {
class ReplicatedGtm;
}

namespace preserial::check {

// A complete record of one GTM execution, sufficient for offline
// correctness checking: the chronological middleware event stream (with the
// structured per-operation payload of TraceLog::RecordOp), the permanent
// state before and after the run, and the per-object member dependencies the
// admission decisions were made under. Events are strictly ordered — every
// Gtm entry point runs under one lock domain, so the trace ring order is the
// real execution order.
struct History {
  std::vector<gtm::TraceEvent> events;

  // X_permanent per (object, member) before the first and after the last
  // event.
  std::map<gtm::Cell, storage::Value> initial;
  std::map<gtm::Cell, storage::Value> final_state;

  // Logical-dependence relation per object (paper Sec. IV), snapshotted at
  // attach time.
  std::map<gtm::ObjectId, semantics::LogicalDependencies> deps;

  // Optional CHECK-constraint lower bounds: every value the GTM installs
  // into (object, member) must be >= the bound. Populated by the harness
  // when the schema carries such a constraint (e.g. quantity >= 0).
  std::map<gtm::Cell, double> min_bound;

  // False when the trace ring wrapped or tracing was enabled late: the
  // event stream is missing events and most checks would be unsound.
  bool complete = true;
};

// Snapshot of every registered object's X_permanent, one entry per member.
std::map<gtm::Cell, storage::Value> SnapshotPermanent(const gtm::Gtm& gtm);

// Captures a History from a live Gtm: Attach() enables the trace (and
// snapshots initial state + dependencies) before traffic, Finish() harvests
// the events and the final state. Register every object before attaching.
class HistoryRecorder {
 public:
  HistoryRecorder() = default;

  // `gtm` must outlive Finish(). `trace_capacity` bounds the event ring;
  // a run recording more events than this yields complete == false.
  void Attach(gtm::Gtm* gtm, size_t trace_capacity = 1 << 16);

  // Harvests events + final state. May be called once per Attach.
  History Finish();

  bool attached() const { return gtm_ != nullptr; }

 private:
  gtm::Gtm* gtm_ = nullptr;
  History history_;
  int64_t base_recorded_ = 0;
};

// Cluster variant: one independent History per shard (each shard is its own
// serialization domain; cross-shard atomicity is checked by the 2PC suite).
class ClusterHistoryRecorder {
 public:
  void Attach(cluster::GtmCluster* cluster, size_t trace_capacity = 1 << 16);
  std::vector<History> Finish();

 private:
  std::vector<HistoryRecorder> recorders_;
};

// Replica variant: every node's trace is enabled (a promoted backup replays
// shipped records into its own log); Finish() harvests from the node that is
// primary at that point — the authoritative post-failover timeline.
class ReplicaHistoryRecorder {
 public:
  void Attach(replica::ReplicatedGtm* replicated,
              size_t trace_capacity = 1 << 16);
  History Finish();

 private:
  replica::ReplicatedGtm* replicated_ = nullptr;
  History history_;
};

}  // namespace preserial::check

#endif  // PRESERIAL_CHECK_HISTORY_H_
