#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

// Decorators over the interfaces the program already accepts: a
// GtmEndpoint (what the simulated sessions drive), a ShardBackend (what the
// 2PC coordinator drives) and a WalStorage (what a Database or the
// coordinator logs to). Each forwards every call unchanged, records a span
// around it while tracing is on, and counts the calls and replies that the
// per-layer ratios are built from. Only the traced run installs them.

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/coordinator.h"
#include "gtm/endpoint.h"
#include "storage/wal.h"
#include "trace.h"

namespace perfbench {

class TracedEndpoint : public preserial::gtm::GtmEndpoint {
 public:
  struct Counts {
    int64_t invokes = 0;
    int64_t invoke_waiting = 0;  // kWaiting replies.
    int64_t awakes = 0;
    int64_t awake_aborted = 0;  // Algorithm 9 refusals (kAborted replies).
  };

  explicit TracedEndpoint(preserial::gtm::GtmEndpoint* inner)
      : inner_(inner) {}

  const Counts& counts() const { return counts_; }

  preserial::TxnId Begin(int priority) override;
  preserial::Status Invoke(preserial::TxnId txn,
                           const preserial::gtm::ObjectId& object,
                           preserial::semantics::MemberId member,
                           const preserial::semantics::Operation& op) override;
  preserial::Result<preserial::storage::Value> ReadLocal(
      preserial::TxnId txn, const preserial::gtm::ObjectId& object,
      preserial::semantics::MemberId member) override;
  preserial::Status RequestCommit(preserial::TxnId txn) override;
  preserial::Status RequestAbort(preserial::TxnId txn) override;
  preserial::Status Sleep(preserial::TxnId txn) override;
  preserial::Status Awake(preserial::TxnId txn) override;
  preserial::Status InvokeOnce(
      preserial::TxnId txn, uint64_t seq,
      const preserial::gtm::ObjectId& object,
      preserial::semantics::MemberId member,
      const preserial::semantics::Operation& op) override;
  preserial::Status CommitOnce(preserial::TxnId txn, uint64_t seq) override;
  preserial::Status AbortOnce(preserial::TxnId txn, uint64_t seq) override;
  preserial::Status SleepOnce(preserial::TxnId txn, uint64_t seq) override;
  preserial::Status AwakeOnce(preserial::TxnId txn, uint64_t seq) override;
  preserial::Result<preserial::gtm::TxnState> StateOf(
      preserial::TxnId txn) const override;
  std::vector<preserial::gtm::GtmEvent> TakeEvents() override;
  std::vector<preserial::TxnId> AbortExpiredWaits(
      preserial::Duration max_wait) override;

 private:
  preserial::Status CountInvoke(preserial::Status s);
  preserial::Status CountAwake(preserial::Status s);

  preserial::gtm::GtmEndpoint* inner_;
  Counts counts_;
};

class TracedShardBackend : public preserial::cluster::ShardBackend {
 public:
  struct Counts {
    int64_t prepares = 0;
    int64_t no_votes = 0;  // Prepare replies other than Ok.
  };

  explicit TracedShardBackend(preserial::cluster::ShardBackend* inner)
      : inner_(inner) {}

  const Counts& counts() const { return counts_; }

  size_t num_shards() const override { return inner_->num_shards(); }
  preserial::Status Prepare(preserial::cluster::ShardId shard,
                            preserial::TxnId branch) override;
  preserial::Status CommitPrepared(preserial::cluster::ShardId shard,
                                   preserial::TxnId branch) override;
  preserial::Status AbortBranch(preserial::cluster::ShardId shard,
                                preserial::TxnId branch) override;

 private:
  preserial::cluster::ShardBackend* inner_;
  Counts counts_;
};

// An in-memory log (the program's MemoryWalStorage) that counts appends,
// bytes and syncs. Counters are atomic because the threaded service
// commits from its client threads.
class CountingWal : public preserial::storage::WalStorage {
 public:
  struct Counts {
    int64_t appends = 0;
    int64_t bytes = 0;
    int64_t syncs = 0;
  };

  CountingWal(SpanKind append_span, SpanKind sync_span)
      : append_span_(append_span), sync_span_(sync_span) {}

  Counts counts() const;

  preserial::Status Append(std::string_view bytes) override;
  preserial::Status Sync() override;
  preserial::Result<std::string> ReadAll() const override {
    return inner_.ReadAll();
  }
  preserial::Status Reset(std::string_view bytes) override {
    return inner_.Reset(bytes);
  }

 private:
  SpanKind append_span_;
  SpanKind sync_span_;
  preserial::storage::MemoryWalStorage inner_;
  std::atomic<int64_t> appends_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> syncs_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
