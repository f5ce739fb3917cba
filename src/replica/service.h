#ifndef PRESERIAL_REPLICA_SERVICE_H_
#define PRESERIAL_REPLICA_SERVICE_H_

#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "gtm/policies.h"
#include "replica/replica.h"

namespace preserial::replica {

// Thread-safe facade over a ReplicatedGtm for live (non-simulated) use:
// client threads issue commands, a housekeeping thread pumps async
// shipping, and a monitor thread can kill + promote — all serialized by
// one coarse mutex, same discipline as gtm::GtmService. Clients see
// kUnavailable (Begin: kInvalidTxnId) during the dead-primary window and
// are expected to retry, exactly like the simulated sessions do.
class ReplicaService {
 public:
  ReplicaService(gtm::GtmOptions gtm_options, ReplicaOptions options,
                 uint64_t ship_seed);

  ReplicaService(const ReplicaService&) = delete;
  ReplicaService& operator=(const ReplicaService&) = delete;

  // Setup-time access (bootstrap before spawning client threads).
  ReplicatedGtm* group() { return &group_; }

  Status CreateTable(const std::string& table, storage::Schema schema);
  Status InsertRow(const std::string& table, storage::Row row);
  Status RegisterObject(const gtm::ObjectId& id, const std::string& table,
                        const storage::Value& key,
                        std::vector<size_t> member_columns,
                        semantics::LogicalDependencies deps = {});

  TxnId Begin(int priority = 0);
  Status InvokeOnce(TxnId txn, uint64_t seq, const gtm::ObjectId& object,
                    semantics::MemberId member,
                    const semantics::Operation& op);
  Status CommitOnce(TxnId txn, uint64_t seq);

  Status Pump();
  void KillPrimary();
  Result<PromotionReport> Promote();
  uint64_t ReplicationLag();
  uint64_t Epoch();

 private:
  SystemClock clock_;
  Rng ship_rng_;
  ReplicatedGtm group_;
  std::mutex mu_;
};

}  // namespace preserial::replica

#endif  // PRESERIAL_REPLICA_SERVICE_H_
