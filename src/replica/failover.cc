#include "replica/failover.h"

#include <set>
#include <utility>

#include "common/strings.h"
#include "gtm/managed_txn.h"
#include "gtm/metrics.h"
#include "gtm/trace.h"
#include "gtm/txn_state.h"

namespace preserial::replica {

Result<PromotionReport> FailoverController::Promote() {
  ReplicatedGtm* g = group_;
  ReplicaNode* old_primary = g->nodes_[g->primary_].get();
  if (old_primary->alive()) {
    return Status::FailedPrecondition("failover: primary is still alive");
  }

  // Elect the live backup with the most of the log applied.
  size_t winner = g->nodes_.size();
  uint64_t winner_lsn = 0;
  for (size_t i = 0; i < g->nodes_.size(); ++i) {
    if (i == g->primary_ || !g->nodes_[i]->alive()) continue;
    if (winner == g->nodes_.size() ||
        g->nodes_[i]->last_applied() > winner_lsn) {
      winner = i;
      winner_lsn = g->nodes_[i]->last_applied();
    }
  }
  if (winner == g->nodes_.size()) {
    return Status::Unavailable("failover: no live backup to promote");
  }
  ReplicaNode* node = g->nodes_[winner].get();

  PromotionReport report;
  report.new_primary = winner;
  report.promoted_lsn = winner_lsn;

  // What the dead primary knew vs. what the winner replayed. In-process we
  // can inspect the corpse for exact accounting; a real deployment only
  // ever learns `sleeping_preserved`.
  const std::vector<TxnId> dead_sleeping =
      old_primary->gtm()->TransactionsInState(gtm::TxnState::kSleeping);
  std::set<TxnId> winner_sleeping;
  for (TxnId t :
       node->gtm()->TransactionsInState(gtm::TxnState::kSleeping)) {
    winner_sleeping.insert(t);
  }
  report.sleeping_at_failure = static_cast<int64_t>(dead_sleeping.size());
  for (TxnId t : dead_sleeping) {
    if (winner_sleeping.count(t) > 0) {
      ++report.sleeping_preserved;
    } else {
      ++report.sleeping_lost;
    }
  }

  // Fence: the suffix only the dead primary applied is gone — clients that
  // never got those replies will retry against the new epoch; clients that
  // did are the async-mode durability gap the bench measures.
  report.truncated_records = g->log_.TruncateTo(winner_lsn);
  PRESERIAL_RETURN_IF_ERROR(g->log_.Repoint(node->log_storage()));
  report.new_epoch = ++g->epoch_;
  node->set_epoch(g->epoch_);
  node->set_role(ReplicaRole::kPrimary);
  g->primary_ = winner;

  // Backups drained notifications while replaying; re-announce every grant
  // a live Active transaction holds so parked sessions wake up after they
  // re-bind. OnGranted is idempotent on the session side, so transactions
  // that already consumed their grant shrug the repeat off.
  for (TxnId t :
       node->gtm()->TransactionsInState(gtm::TxnState::kActive)) {
    const gtm::ManagedTxn* txn = node->gtm()->GetTxn(t);
    if (txn == nullptr) continue;
    std::set<gtm::ObjectId> objects;
    for (const auto& [cell, cls] : txn->grants()) {
      (void)cls;
      objects.insert(cell.object);
    }
    for (const gtm::ObjectId& object : objects) {
      g->pending_events_.push_back(gtm::GtmEvent{t, object});
      ++report.grant_events_synthesized;
    }
  }

  g->RebuildShipper();
  g->UpdateLagGauge();

  gtm::GtmCounters& counters = node->gtm()->metrics().counters();
  ++counters.failovers_total;
  gtm::TraceLog* trace = node->gtm()->trace();
  if (trace->enabled()) {
    trace->Record(
        node->replay_clock()->Now(), gtm::TraceEventKind::kPromote,
        kInvalidTxnId, "",
        StrFormat("epoch=%llu lsn=%llu sleeping_preserved=%lld/%lld",
                  static_cast<unsigned long long>(report.new_epoch),
                  static_cast<unsigned long long>(report.promoted_lsn),
                  static_cast<long long>(report.sleeping_preserved),
                  static_cast<long long>(report.sleeping_at_failure)));
  }
  return report;
}

}  // namespace preserial::replica
