// ReplicaService under real threads — the tsan target for the concurrent
// ship/apply/promote path. Client threads drive *Once transactions through
// a primary that a monitor thread kills and fails over mid-storm, while a
// housekeeping thread pumps replication the whole time. Clients retry
// through the dead-primary window exactly like the simulated sessions do.

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "replica/service.h"
#include "test_util.h"

namespace preserial::replica {
namespace {

using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr int kClients = 4;
constexpr int kTxnsPerClient = 50;
constexpr int64_t kInitialQty = 1000000;
// Every retry loop is bounded so a regression fails the test instead of
// hanging it.
constexpr int kMaxSpins = 2000000;

void Bootstrap(ReplicaService& service) {
  Schema schema = Schema::Create(
                      {
                          ColumnDef{"id", ValueType::kInt64, false},
                          ColumnDef{"qty", ValueType::kInt64, false},
                      },
                      0)
                      .value();
  ASSERT_TRUE(service.CreateTable("obj", std::move(schema)).ok());
  ASSERT_TRUE(
      service.InsertRow("obj", Row({Value::Int(0), Value::Int(kInitialQty)}))
          .ok());
  ASSERT_TRUE(service.RegisterObject("X", "obj", Value::Int(0), {1}).ok());
}

// One client session: Begin (retried while the primary is dead), one
// subtract and a commit, each as an idempotent *Once request retried
// across kUnavailable replies. Returns true iff the commit was
// acknowledged.
bool RunOneTxn(ReplicaService* service) {
  TxnId t = kInvalidTxnId;
  for (int spin = 0; t == kInvalidTxnId && spin < kMaxSpins; ++spin) {
    t = service->Begin();
    if (t == kInvalidTxnId) std::this_thread::yield();
  }
  if (t == kInvalidTxnId) return false;

  Status s;
  for (int spin = 0; spin < kMaxSpins; ++spin) {
    s = service->InvokeOnce(t, 1, "X", 0, Operation::Sub(Value::Int(1)));
    if (s.code() != StatusCode::kUnavailable) break;
    std::this_thread::yield();
  }
  // The transaction can vanish in an async failover; the client gives up
  // on it and the conservation check accounts for the asymmetry.
  if (!s.ok()) return false;

  for (int spin = 0; spin < kMaxSpins; ++spin) {
    s = service->CommitOnce(t, 2);
    if (s.code() != StatusCode::kUnavailable) break;
    std::this_thread::yield();
  }
  return s.ok();
}

// Runs the full storm: clients + pump thread + a monitor that kills the
// primary mid-run and promotes a backup. Returns acknowledged commits.
int64_t RunStorm(ReplicaService* service) {
  std::atomic<int64_t> successes{0};
  std::atomic<bool> stop{false};

  std::thread pump([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)service->Pump();
      std::this_thread::yield();
    }
  });
  std::thread monitor([&] {
    // Kill mid-run: wait for the storm to have real work acknowledged
    // instead of guessing a startup delay.
    (void)testutil::WaitUntil([&] { return successes.load() > 0; });
    service->KillPrimary();
    // Detection delay: the dead-primary window the clients must ride out.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Result<PromotionReport> rep = service->Promote();
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kTxnsPerClient; ++i) {
        if (RunOneTxn(service)) successes.fetch_add(1);
      }
    });
  }
  for (std::thread& th : clients) th.join();
  monitor.join();
  stop.store(true);
  pump.join();
  return successes.load();
}

// Quantity drained on the current primary. An async failover can promote a
// backup that never received the bootstrap records: it has no table (or no
// row) and so has drained nothing.
int64_t Consumed(ReplicaService& service) {
  Result<storage::Table*> table =
      service.group()->primary_db()->GetTable("obj");
  if (!table.ok()) return 0;
  Result<Value> qty = table.value()->GetColumnByKey(Value::Int(0), 1);
  return qty.ok() ? kInitialQty - qty.value().as_int() : 0;
}

TEST(ReplicaServiceTest, SyncStormFailsOverWithExactConservation) {
  ReplicaOptions opts;
  opts.num_backups = 2;
  ReplicaService service(gtm::GtmOptions{}, opts, /*ship_seed=*/0x7a11ULL);
  Bootstrap(service);

  const int64_t successes = RunStorm(&service);

  EXPECT_EQ(service.Epoch(), 2u);
  EXPECT_EQ(service.ReplicationLag(), 0u);
  EXPECT_GT(successes, 0);
  // Sync shipping: every acknowledged commit survived the promotion and
  // drained exactly one unit — no half-commits, no lost acks.
  EXPECT_EQ(Consumed(service), successes);
  ReplicatedGtm* group = service.group();
  EXPECT_TRUE(group->primary_gtm()->CheckInvariants().ok());
  EXPECT_EQ(group->primary_gtm()->metrics().counters().failovers_total, 1);
  // The surviving backup converged to the promoted primary's log.
  for (size_t i = 0; i < group->num_nodes(); ++i) {
    if (!group->node(i)->alive()) continue;
    EXPECT_EQ(group->node(i)->last_applied(), group->log().last_lsn());
    EXPECT_TRUE(group->node(i)->gtm()->CheckInvariants().ok());
  }
}

TEST(ReplicaServiceTest, AsyncStormStaysInternallyConsistent) {
  ReplicaOptions opts;
  opts.num_backups = 2;
  opts.ship.mode = ShipMode::kAsync;
  opts.ship.window = 8;
  ReplicaService service(gtm::GtmOptions{}, opts, /*ship_seed=*/0xdeafULL);
  Bootstrap(service);

  const int64_t successes = RunStorm(&service);

  EXPECT_EQ(service.Epoch(), 2u);
  EXPECT_GT(successes, 0);
  // Async shipping can lose acknowledged commits at failover, so the
  // promoted state may trail the clients' view — but it must never exceed
  // it, and it must be internally consistent (each surviving commit
  // drained exactly once).
  EXPECT_LE(Consumed(service), successes);
  ReplicatedGtm* group = service.group();
  EXPECT_TRUE(group->primary_gtm()->CheckInvariants().ok());
  // Drain whatever the pump hadn't shipped when the storm ended.
  while (service.ReplicationLag() > 0) ASSERT_TRUE(service.Pump().ok());
  for (size_t i = 0; i < group->num_nodes(); ++i) {
    if (!group->node(i)->alive()) continue;
    EXPECT_EQ(group->node(i)->last_applied(), group->log().last_lsn());
    EXPECT_TRUE(group->node(i)->gtm()->CheckInvariants().ok());
  }
}

}  // namespace
}  // namespace preserial::replica
