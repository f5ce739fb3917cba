#include "check/history.h"

#include <utility>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "replica/replica.h"

namespace preserial::check {

std::map<gtm::Cell, storage::Value> SnapshotPermanent(const gtm::Gtm& gtm) {
  std::map<gtm::Cell, storage::Value> out;
  for (const gtm::ObjectId& id : gtm.ObjectIds()) {
    Result<const gtm::ObjectState*> obj = gtm.GetObject(id);
    PRESERIAL_CHECK(obj.ok());
    const gtm::ObjectState* o = obj.value();
    for (size_t m = 0; m < o->num_members(); ++m) {
      out.emplace(gtm::Cell{id, m}, o->permanent[m]);
    }
  }
  return out;
}

void HistoryRecorder::Attach(gtm::Gtm* gtm, size_t trace_capacity) {
  PRESERIAL_CHECK(gtm_ == nullptr);
  gtm_ = gtm;
  history_ = History{};
  history_.initial = SnapshotPermanent(*gtm);
  for (const gtm::ObjectId& id : gtm->ObjectIds()) {
    Result<const gtm::ObjectState*> obj = gtm->GetObject(id);
    PRESERIAL_CHECK(obj.ok());
    history_.deps.emplace(id, obj.value()->deps);
  }
  // Events recorded before this attach (e.g. setup traffic) are not part of
  // the history; remember the baseline so Finish() can tell whether *our*
  // window stayed inside the ring.
  gtm->trace()->Enable(trace_capacity);
  base_recorded_ = gtm->trace()->total_recorded();
}

History HistoryRecorder::Finish() {
  PRESERIAL_CHECK(gtm_ != nullptr);
  const gtm::TraceLog& log = *gtm_->trace();
  history_.events = log.Snapshot();
  // Enable() cleared the ring, so everything recorded since attach must
  // still be resident for the history to be complete.
  history_.complete =
      log.total_recorded() - base_recorded_ ==
      static_cast<int64_t>(history_.events.size());
  history_.final_state = SnapshotPermanent(*gtm_);
  gtm_ = nullptr;
  return std::move(history_);
}

void ClusterHistoryRecorder::Attach(cluster::GtmCluster* cluster,
                                    size_t trace_capacity) {
  recorders_.clear();
  recorders_.resize(cluster->num_shards());
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    recorders_[s].Attach(cluster->shard(s), trace_capacity);
  }
}

std::vector<History> ClusterHistoryRecorder::Finish() {
  std::vector<History> out;
  out.reserve(recorders_.size());
  for (HistoryRecorder& r : recorders_) out.push_back(r.Finish());
  return out;
}

void ReplicaHistoryRecorder::Attach(replica::ReplicatedGtm* replicated,
                                    size_t trace_capacity) {
  PRESERIAL_CHECK(replicated_ == nullptr);
  replicated_ = replicated;
  history_ = History{};
  gtm::Gtm* primary = replicated->primary_gtm();
  history_.initial = SnapshotPermanent(*primary);
  for (const gtm::ObjectId& id : primary->ObjectIds()) {
    Result<const gtm::ObjectState*> obj = primary->GetObject(id);
    PRESERIAL_CHECK(obj.ok());
    history_.deps.emplace(id, obj.value()->deps);
  }
  // Every node records: a later-promoted backup replays the shipped log
  // into its own trace, so whichever node ends up primary holds a full
  // timeline of the surviving execution.
  for (size_t i = 0; i < replicated->num_nodes(); ++i) {
    replicated->node(i)->gtm()->trace()->Enable(trace_capacity);
  }
}

History ReplicaHistoryRecorder::Finish() {
  PRESERIAL_CHECK(replicated_ != nullptr);
  gtm::Gtm* primary = replicated_->primary_gtm();
  const gtm::TraceLog& log = *primary->trace();
  history_.events = log.Snapshot();
  history_.complete = log.total_recorded() ==
                      static_cast<int64_t>(history_.events.size());
  history_.final_state = SnapshotPermanent(*primary);
  replicated_ = nullptr;
  return std::move(history_);
}

}  // namespace preserial::check
