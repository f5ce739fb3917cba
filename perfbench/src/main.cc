// The benchmark binary. Runs one workload from generated inputs and
// prints human-readable lines followed by one JSON result line:
//
//   perfbench --workload sec6b_hot|tours_replicated|svc_wide --seed N
//             [--seconds S] [--trace 0|1] [--scale F]
//             [--spans-out PATH]
//
// Exit code 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
      continue;
    }
    if (flag == "--spans-out") {
      options.spans_out = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
    if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else if (flag == "--scale") {
      options.scale = number;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0 || options.scale <= 0) {
    return Usage("--seconds and --scale must be positive");
  }

  perfbench::Report (*run)(const perfbench::RunOptions&) = nullptr;
  if (workload == "sec6b_hot") run = perfbench::RunSec6bHot;
  if (workload == "tours_replicated") run = perfbench::RunToursReplicated;
  if (workload == "svc_wide") run = perfbench::RunSvcWide;
  if (run == nullptr) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  const perfbench::Report report = run(options);
  report.Print();
  return report.correct() ? 0 : 1;
}
