// Ablation: shard count x cross-shard ratio for the partitioned GTM
// cluster. Two parts:
//
//  1. Wall-clock scaling: one worker thread per shard hammers the threaded
//     ClusterService with single-object bookings (all compatible
//     subtractions); a --cross-shard-ratio fraction books a second object
//     on another shard and commits through the coordinator's 2PC. At ratio
//     0 the shards share nothing, so committed-transaction throughput
//     should scale with the shard count.
//  2. Simulated workload: the Sec. VI-B arrival sequence (disconnections
//     included) on the sharded topology in virtual time, reporting
//     commit rates, coordinator outcomes and per-shard abort attribution.
//
// Knobs: --shards=1,2,4 (comma list of shard counts) and
// --cross-shard-ratio=0,0.2 (comma list of ratios). Emits a JSON mirror of
// both tables after the text output.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/service.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "workload/gtm_experiment.h"

namespace {

using namespace preserial;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr char kTable[] = "resources";
constexpr size_t kNumObjects = 64;
constexpr int kRunMillis = 250;  // Wall-clock measurement window per config.

std::vector<double> ParseDoubles(const char* list) {
  std::vector<double> out;
  for (const char* p = list; *p != '\0';) {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    if (end == p) break;
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

gtm::ObjectId ObjectIdFor(size_t i) { return StrFormat("%s/%zu", kTable, i); }

// Builds the cluster's tables/rows/objects: one two-column counter row per
// object, placed on its hash-owning shard.
void Populate(cluster::GtmCluster* gtm_cluster) {
  Result<Schema> schema = Schema::Create(
      {
          ColumnDef{"id", ValueType::kInt64, false},
          ColumnDef{"qty", ValueType::kInt64, false},
      },
      /*primary_key=*/0);
  PRESERIAL_CHECK(schema.ok());
  Status created =
      gtm_cluster->CreateTableAllShards(kTable, std::move(schema).value());
  PRESERIAL_CHECK(created.ok()) << created.ToString();
  for (size_t i = 0; i < kNumObjects; ++i) {
    const gtm::ObjectId oid = ObjectIdFor(i);
    const Value key = Value::Int(static_cast<int64_t>(i));
    Status s = gtm_cluster->db(gtm_cluster->ShardOf(oid))
                   ->InsertRow(kTable, Row({key, Value::Int(1000000000)}));
    PRESERIAL_CHECK(s.ok()) << s.ToString();
    s = gtm_cluster->RegisterObject(oid, kTable, key, {1});
    PRESERIAL_CHECK(s.ok()) << s.ToString();
  }
}

struct WallResult {
  size_t shards = 0;
  double ratio = 0;
  int64_t committed = 0;
  int64_t cross_committed = 0;
  double elapsed = 0;
  double Throughput() const { return elapsed > 0 ? committed / elapsed : 0; }
};

// Fixed pool of `num_workers` threads (the same pool for every shard
// count, so runs are comparable): worker w books on home shard w % S. With
// one shard every worker serializes on that shard's mutex; with more
// shards the pool spreads across independent lock domains, which is
// exactly the contention the partitioning removes — so committed
// throughput grows with S on multi-core hosts and still improves on a
// single core by shedding lock handoffs.
WallResult RunWallClock(size_t num_shards, double ratio, size_t num_workers) {
  SystemClock clock;
  cluster::GtmCluster gtm_cluster(num_shards, &clock);
  Populate(&gtm_cluster);
  storage::MemoryWalStorage wal;
  cluster::ClusterService service(&gtm_cluster, &wal);

  std::vector<std::vector<gtm::ObjectId>> owned(num_shards);
  for (size_t i = 0; i < kNumObjects; ++i) {
    const gtm::ObjectId oid = ObjectIdFor(i);
    owned[gtm_cluster.ShardOf(oid)].push_back(oid);
  }

  const semantics::Operation book = semantics::Operation::Sub(Value::Int(1));
  std::atomic<bool> stop{false};
  std::vector<int64_t> committed(num_workers, 0);
  std::vector<int64_t> cross(num_workers, 0);
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back([&, w] {
      const cluster::ShardId s = w % num_shards;
      if (owned[s].empty()) return;
      Rng rng(0xabc0 + w);
      int64_t local = 0, local_cross = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const gtm::ObjectId& oid = owned[s][rng.NextBounded(owned[s].size())];
        const TxnId b = service.Begin(s);
        if (!service.Invoke(s, b, oid, 0, book).ok()) {
          (void)service.RequestAbort(s, b);
          continue;
        }
        cluster::ShardId other = s;
        if (num_shards > 1 && rng.NextBool(ratio)) {
          other = (s + 1 + rng.NextBounded(num_shards - 1)) % num_shards;
          if (owned[other].empty()) other = s;
        }
        if (other == s) {
          if (service.RequestCommit(s, b).ok()) ++local;
          continue;
        }
        const gtm::ObjectId& oid2 =
            owned[other][rng.NextBounded(owned[other].size())];
        const TxnId b2 = service.Begin(other);
        if (!service.Invoke(other, b2, oid2, 0, book).ok()) {
          (void)service.RequestAbort(other, b2);
          (void)service.RequestAbort(s, b);
          continue;
        }
        if (service.CommitGlobal({{s, b}, {other, b2}}).ok()) {
          ++local;
          ++local_cross;
        }
      }
      committed[w] = local;
      cross[w] = local_cross;
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(kRunMillis));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  const auto end = std::chrono::steady_clock::now();

  WallResult r;
  r.shards = num_shards;
  r.ratio = ratio;
  r.elapsed = std::chrono::duration<double>(end - start).count();
  for (size_t w = 0; w < num_workers; ++w) {
    r.committed += committed[w];
    r.cross_committed += cross[w];
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsFlags obs = bench::ParseObsFlags(argc, argv);
  std::vector<size_t> shard_counts = {1, 2, 4};
  std::vector<double> ratios = {0.0, 0.2};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shard_counts.clear();
      for (double v : ParseDoubles(argv[i] + 9)) {
        if (v >= 1) shard_counts.push_back(static_cast<size_t>(v));
      }
    } else if (std::strncmp(argv[i], "--cross-shard-ratio=", 20) == 0) {
      ratios = ParseDoubles(argv[i] + 20);
    } else if (std::strncmp(argv[i], "--trace", 7) == 0 ||
               std::strncmp(argv[i], "--obs-out=", 10) == 0) {
      // Handled by ParseObsFlags above.
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards=1,2,4] [--cross-shard-ratio=0,0.2] "
                   "[--trace[=N]] [--obs-out=PREFIX]\n",
                   argv[0]);
      return 2;
    }
  }
  PRESERIAL_CHECK(!shard_counts.empty() && !ratios.empty());

  // One writer for both tables and the JSON mirror; the two parts share the
  // JSON stream, discriminated by the "mode" field. Simulated rows carry
  // per-shard breakdowns: each shard's commit counter and the aborts
  // attributed to the shard that raised them (aborted_by_tag_shard).
  bench::Report report("ablation_shards");

  // --- part 1: wall-clock scaling over the threaded ClusterService ---------
  size_t num_workers = 1;
  for (size_t s : shard_counts) num_workers = std::max(num_workers, s);
  report.Section(
      StrFormat(
          "Ablation: shard count — wall-clock throughput (%zu worker threads)",
          num_workers),
      {"shards", "xshard ratio", "committed", "xshard txns", "txn/s",
       "speedup"},
      14);
  std::vector<double> base_rate(ratios.size(), 0.0);
  for (size_t s_idx = 0; s_idx < shard_counts.size(); ++s_idx) {
    for (size_t r_idx = 0; r_idx < ratios.size(); ++r_idx) {
      const WallResult r =
          RunWallClock(shard_counts[s_idx], ratios[r_idx], num_workers);
      if (shard_counts[s_idx] == shard_counts.front()) {
        base_rate[r_idx] = r.Throughput();
      }
      const double speedup =
          base_rate[r_idx] > 0 ? r.Throughput() / base_rate[r_idx] : 0.0;
      report.BeginRow();
      report.JsonStr("mode", "wallclock");
      report.TableOnly(bench::Num(r.shards, 0));
      report.JsonInt("shards", static_cast<int64_t>(r.shards));
      report.Num("cross_shard_ratio", r.ratio, 2);
      report.Int("committed", r.committed);
      report.Int("cross_shard_committed", r.cross_committed);
      report.JsonNum("elapsed_s", r.elapsed, 4);
      report.TableOnly(bench::Num(r.Throughput(), 0));
      report.JsonNum("throughput", r.Throughput(), 1);
      report.TableOnly(bench::Num(speedup, 2));
      report.EndRow();
    }
  }
  report.Note(
      "shape check: at ratio 0 the shards share nothing and throughput "
      "grows with the shard count; cross-shard transactions pay two "
      "prepares plus the serialized coordinator, flattening the curve.");

  // --- part 2: simulated Sec. VI-B workload over the router ----------------
  report.Section("Ablation: cross-shard ratio — simulated workload (2PC)",
                 {"shards", "xshard ratio", "commit%", "xshard planned",
                  "2pc commits", "2pc aborts", "consumed"},
                 15);
  auto sharded_spec = [](size_t num_shards, double ratio) {
    workload::GtmExperimentSpec spec;
    spec.num_txns = 600;
    spec.num_objects = 32;
    spec.alpha = 0.8;
    spec.beta = 0.05;
    spec.seed = 42;
    spec.topology = workload::ShardedTopology{.num_shards = num_shards,
                                              .cross_shard_ratio = ratio};
    return spec;
  };
  for (size_t num_shards : shard_counts) {
    for (double ratio : ratios) {
      const workload::GtmExperimentSpec spec = sharded_spec(num_shards, ratio);
      const workload::GtmExperimentResult r = RunGtmExperiment(spec);
      const double n = static_cast<double>(spec.num_txns);
      report.BeginRow();
      report.JsonStr("mode", "simulated");
      report.TableOnly(bench::Num(num_shards, 0));
      report.JsonInt("shards", static_cast<int64_t>(num_shards));
      report.Num("cross_shard_ratio", ratio, 2);
      report.TableOnly(bench::Num(100.0 * r.run.committed / n, 2));
      report.JsonInt("committed", r.run.committed);
      report.JsonInt("aborted", r.run.aborted);
      report.Int("cross_shard_planned", r.cross_shard_planned);
      report.TableOnly(bench::Num(r.coordinator.commits, 0));
      report.TableOnly(bench::Num(r.coordinator.aborts, 0));
      report.Int("quantity_consumed", r.quantity_consumed);
      report.BeginObject("coordinator");
      report.JsonInt("commits", r.coordinator.commits);
      report.JsonInt("aborts", r.coordinator.aborts);
      report.JsonInt("prepare_failures", r.coordinator.prepare_failures);
      report.EndObject();
      report.BeginObject("committed_by_shard");
      for (size_t s = 0; s < r.shard_snapshots.size(); ++s) {
        report.JsonInt(StrFormat("%zu", s),
                       r.shard_snapshots[s].counters.committed);
      }
      report.EndObject();
      report.BeginObject("aborted_by_shard");
      for (size_t s = 0; s < r.shard_snapshots.size(); ++s) {
        int64_t aborts = 0;
        for (const auto& [tag_shard, count] : r.run.aborted_by_tag_shard) {
          if (tag_shard.second == static_cast<int>(s)) aborts += count;
        }
        report.JsonInt(StrFormat("%zu", s), aborts);
      }
      report.EndObject();
      report.EndRow();
    }
  }
  report.Finish();

  bench::RunTraced(obs, sharded_spec(4, 0.2));
  return 0;
}
