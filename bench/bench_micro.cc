// Microbenchmarks of the substrate hot paths (google-benchmark): B+-tree,
// lock manager and WAL append. These establish that substrate overheads are
// microseconds — negligible next to the seconds-scale user think times the
// paper's model assumes, which justifies the "instantaneous SST" modelling
// assumption of Sec. VI-A. The GTM's own invoke and commit paths are
// measured at steady state by perfbench (gtm.invoke.us, gtm.commit.us).

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "lock/lock_manager.h"
#include "storage/btree.h"
#include "storage/wal.h"

namespace {

using namespace preserial;
using storage::Row;
using storage::Value;

void BM_BTreeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    storage::BTree tree;
    state.ResumeTiming();
    for (int64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(tree.Insert(Value::Int(i), i));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  storage::BTree tree;
  for (int64_t i = 0; i < n; ++i) {
    (void)tree.Insert(Value::Int(i), static_cast<storage::RowId>(i));
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(Value::Int(rng.NextInt(0, n - 1))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000);

void BM_BTreeScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  storage::BTree tree;
  for (int64_t i = 0; i < n; ++i) {
    (void)tree.Insert(Value::Int(i), static_cast<storage::RowId>(i));
  }
  for (auto _ : state) {
    int64_t count = 0;
    tree.ScanAll([&count](const Value&, storage::RowId) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeScan)->Arg(10000);

void BM_LockAcquireRelease(benchmark::State& state) {
  lock::LockManager lm;
  TxnId txn = 1;
  for (auto _ : state) {
    (void)lm.Acquire(txn, "resource", lock::LockMode::kExclusive);
    benchmark::DoNotOptimize(lm.ReleaseAll(txn));
    ++txn;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

void BM_WalAppend(benchmark::State& state) {
  storage::MemoryWalStorage wal_storage;
  storage::WalWriter writer(&wal_storage);
  TxnId txn = 1;
  for (auto _ : state) {
    (void)writer.LogUpdate(txn, "t", Value::Int(7),
                           Row({Value::Int(7), Value::Int(42)}));
    ++txn;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppend);

}  // namespace
