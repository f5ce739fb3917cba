#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double InputRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t InputRng::Below(uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double InputRng::Exponential(double mean) {
  return -mean * std::log1p(-Uniform());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, int64_t samples) {
  info_.push_back(Metric{name, value, unit, samples});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  ++failed_;
  std::printf("[%s] CHECK FAILED: %s\n", workload_.c_str(), why.c_str());
}

void Report::Note(const std::string& line) {
  std::printf("[%s] %s\n", workload_.c_str(), line.c_str());
}

void Report::Print() const {
  for (const std::vector<Metric>* list : {&info_, &metrics_}) {
    for (const Metric& m : *list) {
      std::printf("[%s] %-10s %-36s %.6g %s", workload_.c_str(),
                  list == &info_ ? "info" : "metric", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples > 0) {
        std::printf("  (n=%lld)", static_cast<long long>(m.samples));
      }
      std::printf("\n");
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct_ ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"gtm.begin.us", "us"},
      {"gtm.invoke.us", "us"},
      {"gtm.commit.us", "us"},
      {"gtm.sleep.us", "us"},
      {"gtm.awake.us", "us"},
      {"gtm.commit.us_growth", "ratio"},
      {"gtm.invoke.wait_ratio", "fraction"},
      {"gtm.wait.vs_mean", "s"},
      {"gtm.invoke.shared_ratio", "fraction"},
      {"gtm.awake.abort_ratio", "fraction"},
      {"gtm.events.us", "us"},
      {"gtm.sweep.us", "us"},
      {"gtm.state.committed_entries", "count"},
      {"gtm.state.finished_txns", "count"},
      {"gtm.service.begin.us_p50", "us"},
      {"gtm.service.invoke.us_p50", "us"},
      {"gtm.service.commit.us_p50", "us"},
      {"gtm.service.invoke.us_p99", "us"},
      {"gtm.service.commit.us_p99", "us"},
      {"gtm.service.scaling", "ratio"},
      {"semantics.reconciliations_per_commit", "count"},
      {"storage.wal.appends_per_commit", "count"},
      {"storage.wal.bytes_per_commit", "B"},
      {"storage.wal.syncs_per_commit", "count"},
      {"storage.wal.append_us", "us"},
      {"storage.sst.cells_per_commit", "count"},
      {"storage.sst.retries", "count"},
      {"cluster.router.invoke.us", "us"},
      {"cluster.router.commit.us", "us"},
      {"cluster.2pc.prepare.us", "us"},
      {"cluster.2pc.commit_prepared.us", "us"},
      {"cluster.2pc.global_ratio", "fraction"},
      {"cluster.2pc.no_vote_ratio", "fraction"},
      {"cluster.coord_wal.bytes_per_global", "B"},
      {"cluster.coord_wal.syncs_per_global", "count"},
      {"replica.log.records_per_commit", "count"},
      {"replica.log.bytes_per_commit", "B"},
      {"replica.ship.records_per_commit", "count"},
      {"replica.ship.resends", "count"},
      {"replica.backup.committed_entries", "count"},
      {"replica.backup.finished_txns", "count"},
      {"replica.lag_records", "count"},
      {"workload.self_ms_per_ktxn", "ms/ktxn"},
      {"obs.bench_trace_overhead", "ratio"},
  };
  return kMetrics;
}

void AddLayerMetrics(const std::map<std::string, double>& values,
                     Report* report) {
  std::string absent;
  for (const LayerMetric& m : LayerMetrics()) {
    auto it = values.find(m.name);
    if (it == values.end()) {
      absent += absent.empty() ? "" : " ";
      absent += m.name;
    }
    report->Add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, value] : values) {
    (void)value;
    bool known = false;
    for (const LayerMetric& m : LayerMetrics()) known |= name == m.name;
    if (!known) report->Fail("unlisted per-layer metric " + name);
  }
  if (!absent.empty()) {
    report->Note("not exercised on this workload (reported as 0): " + absent);
  }
  report->Note(
      "lock and txn run only inside the SST, so their time is part of "
      "gtm.commit.us (gtm.service.commit.* on svc_wide) and is not split "
      "from outside");
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

}  // namespace perfbench
