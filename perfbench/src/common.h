#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// What one invocation of the benchmark binary is asked to do.
struct RunOptions {
  uint64_t seed = 1;
  // Sets the measured transaction count: seconds x the workload's nominal
  // rate. The count, not the clock, ends the measured phase.
  double seconds = 10;
  bool trace = false;
  // Multiplies every transaction count (warm-up and measured). The
  // benchmark's own tests run at a small scale.
  double scale = 1;
  std::string spans_out;  // Where the traced run writes its spans.
};

// The benchmark's own input generator (SplitMix64), so the generated plans
// depend only on the seed and never on the program's code.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();                // [0, 1)
  uint64_t Below(uint64_t bound);  // [0, bound)
  bool Bernoulli(double p) { return Uniform() < p; }
  double Exponential(double mean);

 private:
  uint64_t state_;
};

// One workload run's outcome, printed as human-readable lines followed by
// the single JSON result line.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0);
  // A figure printed for people only, not part of the JSON result.
  void Info(const std::string& name, double value, const std::string& unit,
            int64_t samples = 0);
  // A correctness check failed: counted as a failed operation and the run
  // is marked incorrect.
  void Fail(const std::string& why);
  void CountFailed(int64_t n) { failed_ += n; }
  void set_attempted(int64_t n) { attempted_ = n; }
  void Note(const std::string& line);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  // Prints the metrics table and then the JSON result as the last line.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::string workload_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
};

// Every per-layer metric the traced run reports, with its unit, in output
// order. BENCHMARK.json lists the same names.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& LayerMetrics();

// Adds every per-layer metric to `report`, taking values from `values`.
// A metric the workload does not exercise is reported as 0 and named in a
// note line, so each traced run prints the full set.
void AddLayerMetrics(const std::map<std::string, double>& values,
                     Report* report);

double Median(std::vector<double> v);
// Linear interpolation between closest ranks, q in [0, 1].
double Percentile(std::vector<double> v, double q);
double Ratio(double num, double den);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
