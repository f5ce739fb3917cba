// Golden gate for the experiment drivers. Runs, at reduced size, every
// driver configuration the benches, examples and tests use, dumps every
// result field to a canonical text and compares it, section by section,
// with tests/golden/experiments.txt. The runs are seeded and in virtual
// time, so any difference is a change of behaviour.
//
// Each run also writes its section to experiments.actual.txt in the test's
// working directory; after an intended behaviour change, review that file
// and copy it over the golden.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/gtm_experiment.h"
#include "workload/travel_agency.h"

namespace preserial::workload {
namespace {

// --- canonical text --------------------------------------------------------

class Dump {
 public:
  void Int(const std::string& key, int64_t v) {
    out_ << key << " " << v << "\n";
  }
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << key << " " << buf << "\n";
  }
  void Str(const std::string& key, const std::string& v) {
    out_ << key << " " << v << "\n";
  }
  void Hist(const std::string& key, const Histogram& h) {
    Int(key + ".count", h.count());
    Num(key + ".mean", h.mean());
    Num(key + ".p50", h.p50());
    Num(key + ".p99", h.p99());
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

void DumpRun(Dump* d, const RunStats& r) {
  d->Int("run.started", r.started);
  d->Int("run.committed", r.committed);
  d->Int("run.aborted", r.aborted);
  for (const auto& [cause, n] : r.aborts_by_cause) {
    d->Int("run.aborts_by_cause." + std::to_string(static_cast<int>(cause)),
           n);
  }
  d->Hist("run.latency_committed", r.latency_committed);
  d->Hist("run.latency_all", r.latency_all);
  for (const auto& [tag, h] : r.latency_by_tag) {
    d->Hist("run.latency_by_tag." + std::to_string(tag), h);
  }
  for (const auto& [tag, n] : r.aborted_by_tag) {
    d->Int("run.aborted_by_tag." + std::to_string(tag), n);
  }
  for (const auto& [key, n] : r.aborted_by_tag_shard) {
    d->Int("run.aborted_by_tag_shard." + std::to_string(key.first) + "." +
               std::to_string(key.second),
           n);
  }
  d->Int("run.disconnected", r.disconnected);
  d->Int("run.disconnected_aborted", r.disconnected_aborted);
  d->Int("run.retries", r.retries);
  d->Int("run.degraded_to_sleep", r.degraded_to_sleep);
  d->Num("run.first_arrival", r.first_arrival);
  d->Num("run.last_finish", r.last_finish);
}

void DumpSnapshot(Dump* d, const std::string& p,
                  const gtm::GtmMetrics::Snapshot& s) {
  const gtm::GtmCounters& c = s.counters;
  d->Int(p + ".begun", c.begun);
  d->Int(p + ".committed", c.committed);
  d->Int(p + ".aborted", c.aborted);
  d->Int(p + ".invocations", c.invocations);
  d->Int(p + ".granted_immediately", c.granted_immediately);
  d->Int(p + ".shared_grants", c.shared_grants);
  d->Int(p + ".waits", c.waits);
  d->Int(p + ".sleeps", c.sleeps);
  d->Int(p + ".awakes", c.awakes);
  d->Int(p + ".awake_aborts", c.awake_aborts);
  d->Int(p + ".deadlock_refusals", c.deadlock_refusals);
  d->Int(p + ".deadlock_aborts", c.deadlock_aborts);
  d->Int(p + ".timeout_aborts", c.timeout_aborts);
  d->Int(p + ".constraint_aborts", c.constraint_aborts);
  d->Int(p + ".disconnect_aborts", c.disconnect_aborts);
  d->Int(p + ".user_aborts", c.user_aborts);
  d->Int(p + ".prepares", c.prepares);
  d->Int(p + ".prepared_aborts", c.prepared_aborts);
  d->Int(p + ".reconciliations", c.reconciliations);
  d->Int(p + ".sst_executed", c.sst_executed);
  d->Int(p + ".sst_failed", c.sst_failed);
  d->Int(p + ".sst_retries", c.sst_retries);
  d->Int(p + ".sst_cells_written", c.sst_cells_written);
  d->Int(p + ".sst_injected_failures", c.sst_injected_failures);
  d->Int(p + ".duplicates_suppressed", c.duplicates_suppressed);
  d->Int(p + ".starvation_denials", c.starvation_denials);
  d->Int(p + ".admission_denials", c.admission_denials);
  d->Int(p + ".replication_lag_records", c.replication_lag_records);
  d->Int(p + ".failovers_total", c.failovers_total);
  d->Int(p + ".replication_lag_max_records", c.replication_lag_max_records);
  d->Hist(p + ".execution_time", s.execution_time);
  d->Hist(p + ".wait_time", s.wait_time);
}

// Event count plus an FNV-1a checksum over (time, kind, txn, shard).
void DumpTrace(Dump* d, const std::vector<gtm::TraceEvent>& events) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const gtm::TraceEvent& e : events) {
    uint64_t time_bits = 0;
    std::memcpy(&time_bits, &e.time, sizeof(time_bits));
    const int32_t kind = static_cast<int32_t>(e.kind);
    const uint64_t txn = e.txn;
    const int32_t shard = e.shard;
    mix(&time_bits, sizeof(time_bits));
    mix(&kind, sizeof(kind));
    mix(&txn, sizeof(txn));
    mix(&shard, sizeof(shard));
  }
  d->Int("trace.events", static_cast<int64_t>(events.size()));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  d->Str("trace.checksum", buf);
}

void DumpHistory(Dump* d, const std::string& p, const check::History& h) {
  d->Int(p + ".events", static_cast<int64_t>(h.events.size()));
  d->Int(p + ".complete", h.complete ? 1 : 0);
}

void DumpChannel(Dump* d, const mobile::LossyChannel::Counters& c) {
  d->Int("channel.messages", c.messages);
  d->Int("channel.delivered", c.delivered);
  d->Int("channel.dropped", c.dropped);
  d->Int("channel.duplicated", c.duplicated);
  d->Int("channel.reordered", c.reordered);
}

void DumpCoordinator(Dump* d, const cluster::ClusterCoordinator::Counters& c) {
  d->Int("coordinator.commits", c.commits);
  d->Int("coordinator.aborts", c.aborts);
  d->Int("coordinator.prepare_failures", c.prepare_failures);
  d->Int("coordinator.recovered_commits", c.recovered_commits);
  d->Int("coordinator.recovered_aborts", c.recovered_aborts);
  d->Int("coordinator.heuristic_hazards", c.heuristic_hazards);
  d->Int("coordinator.crashes", c.crashes);
}

void DumpShip(Dump* d, const replica::ShipCounters& c) {
  d->Int("ship.records_shipped", c.records_shipped);
  d->Int("ship.records_acked", c.records_acked);
  d->Int("ship.resends", c.resends);
  d->Int("ship.duplicates_delivered", c.duplicates_delivered);
  d->Int("ship.record_losses", c.record_losses);
  d->Int("ship.ack_losses", c.ack_losses);
}

// --- configurations --------------------------------------------------------

constexpr size_t kRing = 1 << 16;

GtmExperimentSpec Base() {
  GtmExperimentSpec spec;
  spec.num_txns = 200;
  spec.num_objects = 5;
  spec.alpha = 0.7;
  spec.beta = 0.1;
  spec.seed = 42;
  spec.trace_capacity = kRing;
  spec.history_capacity = kRing;
  return spec;
}

// Scarce inventory under the CHECK constraint (bench_ablation_constraints).
GtmExperimentSpec Scarce() {
  GtmExperimentSpec spec = Base();
  spec.num_objects = 1;
  spec.alpha = 1.0;
  spec.beta = 0.0;
  spec.work_time = 3.0;
  spec.initial_quantity = 60;
  spec.add_quantity_constraint = true;
  return spec;
}

ChannelSpec Channel(bool degrade_to_sleep) {
  ChannelSpec channel;
  channel.loss = 0.3;
  channel.delay_mean = 0.05;
  channel.reconnect_delay = 10.0;
  channel.degrade_to_sleep = degrade_to_sleep;
  return channel;
}

std::string Single(const GtmExperimentSpec& spec,
                   const gtm::GtmOptions& options = {}) {
  const GtmExperimentResult r = RunGtmExperiment(spec, options);
  Dump d;
  DumpRun(&d, r.run);
  DumpSnapshot(&d, "gtm", r.snapshot);
  DumpTrace(&d, r.trace_events);
  DumpHistory(&d, "history", r.histories.at(0));
  return d.str();
}

std::string Lossy(bool degrade_to_sleep) {
  GtmExperimentSpec spec = Base();
  spec.beta = 0.0;
  spec.channel = Channel(degrade_to_sleep);
  const GtmExperimentResult r = RunGtmExperiment(spec);
  Dump d;
  DumpRun(&d, r.run);
  DumpSnapshot(&d, "gtm", r.snapshot);
  DumpChannel(&d, r.channel);
  d.Int("quantity_consumed", r.quantity_consumed);
  DumpTrace(&d, r.trace_events);
  DumpHistory(&d, "history", r.histories.at(0));
  return d.str();
}

std::string Sharded(const GtmExperimentSpec& base, size_t num_shards,
                    double cross_shard_ratio) {
  GtmExperimentSpec spec = base;
  spec.num_objects = 32;
  spec.alpha = 0.8;
  spec.topology = ShardedTopology{.num_shards = num_shards,
                                  .cross_shard_ratio = cross_shard_ratio};
  const GtmExperimentResult r = RunGtmExperiment(spec);
  Dump d;
  DumpRun(&d, r.run);
  for (size_t sh = 0; sh < r.shard_snapshots.size(); ++sh) {
    DumpSnapshot(&d, "shard" + std::to_string(sh), r.shard_snapshots[sh]);
  }
  DumpSnapshot(&d, "gtm", r.snapshot);
  DumpCoordinator(&d, r.coordinator);
  d.Int("router.committed", r.router_committed);
  d.Int("router.aborted", r.router_aborted);
  d.Int("cross_shard_planned", r.cross_shard_planned);
  for (size_t sh = 0; sh < r.consumed_by_shard.size(); ++sh) {
    d.Int("consumed.shard" + std::to_string(sh), r.consumed_by_shard[sh]);
  }
  d.Int("quantity_consumed", r.quantity_consumed);
  DumpTrace(&d, r.trace_events);
  for (size_t sh = 0; sh < r.histories.size(); ++sh) {
    DumpHistory(&d, "history" + std::to_string(sh), r.histories[sh]);
  }
  return d.str();
}

std::string Failover(replica::ShipMode mode, TimePoint fail_at = 40.0,
                     const GtmExperimentSpec& base = Base()) {
  GtmExperimentSpec spec = base;
  spec.beta = 0.0;
  spec.channel = Channel(true);
  ReplicatedTopology replicated;
  replicated.num_backups = 2;
  replicated.ship.mode = mode;
  replicated.ship.loss = 0.2;
  replicated.ship.duplicate = 0.05;
  replicated.pump_interval = 0.5;
  replicated.fail_at = fail_at;
  replicated.detect_delay = 1.0;
  spec.topology = replicated;
  const GtmExperimentResult r = RunGtmExperiment(spec);
  const FailoverReport& f = r.failover;
  const replica::PromotionReport p =
      f.promotion.value_or(replica::PromotionReport{});
  Dump d;
  DumpRun(&d, r.run);
  DumpSnapshot(&d, "gtm", r.snapshot);
  d.Int("failover.ran", f.promotion ? 1 : 0);
  d.Int("failover.sleeping_at_kill", p.sleeping_at_failure);
  d.Int("failover.sleeping_preserved", p.sleeping_preserved);
  d.Int("failover.sleeping_lost", p.sleeping_lost);
  d.Int("failover.truncated_records",
        static_cast<int64_t>(p.truncated_records));
  d.Int("failover.replication_lag_at_kill", f.replication_lag_at_kill);
  d.Int("failover.final_epoch", static_cast<int64_t>(f.final_epoch));
  d.Num("failover.latency", f.latency);
  d.Int("failover.committed_subtracts", r.run.CommittedWithTag(kTagSubtract));
  d.Int("failover.server_committed_subtracts", f.server_committed_subtracts);
  DumpShip(&d, f.ship);
  d.Int("quantity_consumed", r.quantity_consumed);
  DumpTrace(&d, r.trace_events);
  DumpHistory(&d, "history", r.histories.at(0));
  return d.str();
}

TourWorkloadSpec Tours() {
  TourWorkloadSpec spec;
  spec.num_tours = 200;
  spec.beta = 0.1;
  spec.seed = 42;
  return spec;
}

std::string GtmTours(size_t num_shards) {
  TourWorkloadSpec spec = Tours();
  spec.num_shards = num_shards;
  const GtmExperimentResult r = RunGtmTourExperiment(spec);
  const gtm::GtmCounters& c = r.snapshot.counters;
  Dump d;
  DumpRun(&d, r.run);
  d.Int("tours.waits", c.waits);
  d.Int("tours.shared_grants", c.shared_grants);
  d.Int("tours.awake_aborts", c.awake_aborts);
  d.Int("tours.deadlocks", c.deadlock_refusals);
  d.Int("coordinator.commits", r.coordinator.commits);
  d.Int("coordinator.aborts", r.coordinator.aborts);
  return d.str();
}

std::string Baseline(const BaselineResult& r) {
  Dump d;
  DumpRun(&d, r.run);
  d.Int("2pl.lock_waits", r.two_pl.lock_waits);
  d.Int("2pl.deadlocks", r.two_pl.deadlocks);
  return d.str();
}

struct Config {
  const char* name;
  std::string (*run)();
};

// Prints the configuration by name. The default printer dumps the struct's
// bytes, pointers included, so test names would change from run to run.
void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

const Config kConfigs[] = {
    {"single_default", [] { return Single(Base()); }},
    {"single_no_semantic_sharing",
     [] {
       gtm::GtmOptions options;
       options.semantic_sharing = false;
       return Single(Base(), options);
     }},
    {"single_no_sleep",
     [] {
       gtm::GtmOptions options;
       options.sleep_enabled = false;
       return Single(Base(), options);
     }},
    {"single_starvation_guard",
     [] {
       GtmExperimentSpec spec = Base();
       spec.num_objects = 2;
       spec.alpha = 0.9;
       spec.beta = 0.0;
       spec.interarrival = 0.25;
       spec.work_time = 4.0;
       gtm::GtmOptions options;
       options.starvation_waiter_threshold = 2;
       return Single(spec, options);
     }},
    {"single_constraint", [] { return Single(Scarce()); }},
    {"single_constraint_aware_admission",
     [] {
       gtm::GtmOptions options;
       options.constraint_aware_admission = true;
       return Single(Scarce(), options);
     }},
    {"single_network_delay",
     [] {
       GtmExperimentSpec spec = Base();
       spec.network_delay_mean = 0.5;
       return Single(spec);
     }},
    {"single_lifo_ties",
     [] {
       GtmExperimentSpec spec = Base();
       spec.tie_breaker = [](size_t n) { return n - 1; };
       return Single(spec);
     }},
    {"lossy_degrade_to_sleep", [] { return Lossy(true); }},
    {"lossy_abort_on_loss", [] { return Lossy(false); }},
    {"sharded_1_ratio_0", [] { return Sharded(Base(), 1, 0.0); }},
    {"sharded_1_ratio_0.2", [] { return Sharded(Base(), 1, 0.2); }},
    {"sharded_4_ratio_0", [] { return Sharded(Base(), 4, 0.0); }},
    {"sharded_4_ratio_0.2", [] { return Sharded(Base(), 4, 0.2); }},
    {"sharded_4_ratio_0.2_constraint",
     [] {
       GtmExperimentSpec base = Base();
       base.initial_quantity = 3;
       base.add_quantity_constraint = true;
       return Sharded(base, 4, 0.2);
     }},
    {"sharded_4_ratio_0.2_lifo_ties",
     [] {
       GtmExperimentSpec base = Base();
       base.tie_breaker = [](size_t n) { return n - 1; };
       return Sharded(base, 4, 0.2);
     }},
    {"failover_sync_kill", [] { return Failover(replica::ShipMode::kSync); }},
    {"failover_async_kill",
     [] { return Failover(replica::ShipMode::kAsync); }},
    {"failover_async_no_kill",
     [] { return Failover(replica::ShipMode::kAsync, 0.0); }},
    {"failover_async_kill_lifo_ties",
     [] {
       GtmExperimentSpec base = Base();
       base.tie_breaker = [](size_t n) { return n - 1; };
       return Failover(replica::ShipMode::kAsync, 40.0, base);
     }},
    {"tours_1_shard", [] { return GtmTours(1); }},
    {"tours_4_shards", [] { return GtmTours(4); }},
    {"tours_2pl", [] { return Baseline(RunTwoPlTourExperiment(Tours())); }},
    {"baseline_2pl", [] { return Baseline(RunTwoPlExperiment(Base())); }},
    {"baseline_2pl_no_update_locks",
     [] {
       TwoPlPolicy policy;
       policy.use_update_locks = false;
       return Baseline(RunTwoPlExperiment(Base(), policy));
     }},
    {"baseline_occ", [] { return Baseline(RunOccExperiment(Base())); }},
    {"baseline_occ_validate_reads",
     [] { return Baseline(RunOccExperiment(Base(), true)); }},
};

// --- golden file -----------------------------------------------------------

// Sections of the golden file: "== <name>" headers, each followed by its
// dump lines.
std::map<std::string, std::string> ReadGolden() {
  std::ifstream in(PRESERIAL_GOLDEN_DIR "/experiments.txt");
  std::map<std::string, std::string> sections;
  std::string line;
  std::string* current = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      current = &sections[line.substr(3)];
    } else if (current != nullptr) {
      *current += line + "\n";
    }
  }
  return sections;
}

class ExperimentGoldenTest : public ::testing::TestWithParam<Config> {
 protected:
  static void TearDownTestSuite() {
    std::ofstream out("experiments.actual.txt");
    for (const Config& c : kConfigs) {
      auto it = actual().find(c.name);
      if (it != actual().end()) out << "== " << c.name << "\n" << it->second;
    }
  }
  static std::map<std::string, std::string>& actual() {
    static std::map<std::string, std::string> sections;
    return sections;
  }
};

TEST_P(ExperimentGoldenTest, MatchesGolden) {
  const Config& config = GetParam();
  const std::string dump = config.run();
  actual()[config.name] = dump;
  const std::map<std::string, std::string> golden = ReadGolden();
  auto it = golden.find(config.name);
  ASSERT_NE(it, golden.end()) << "no golden section for " << config.name;
  EXPECT_EQ(it->second, dump);
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, ExperimentGoldenTest, ::testing::ValuesIn(kConfigs),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name;
    });

TEST(ExperimentGoldenFileTest, EveryGoldenSectionHasAConfiguration) {
  const std::map<std::string, std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty());
  size_t matched = 0;
  for (const Config& c : kConfigs) matched += golden.count(c.name);
  EXPECT_EQ(matched, golden.size());
  EXPECT_EQ(golden.size(), std::size(kConfigs));
}

}  // namespace
}  // namespace preserial::workload
