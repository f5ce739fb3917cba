#ifndef PRESERIAL_BENCH_BENCH_UTIL_H_
#define PRESERIAL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "gtm/metrics.h"
#include "gtm/trace.h"
#include "obs/export.h"
#include "workload/gtm_experiment.h"

namespace preserial::bench {

// Minimal fixed-width table printer shared by the experiment harnesses.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, size_t width = 14)
      : headers_(std::move(headers)), width_(width) {}

  void PrintHeader() const {
    std::string line;
    for (const std::string& h : headers_) line += PadLeft(h, width_);
    std::puts(line.c_str());
    std::puts(std::string(width_ * headers_.size(), '-').c_str());
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    std::string line;
    for (const std::string& c : cells) line += PadLeft(c, width_);
    std::puts(line.c_str());
  }

 private:
  std::vector<std::string> headers_;
  size_t width_;
};

inline std::string Num(double v, int precision = 4) {
  return StrFormat("%.*f", precision, v);
}

inline void Banner(const std::string& title) {
  std::puts("");
  std::puts(("== " + title + " ==").c_str());
}

// Buffering emitter for the machine-readable mirror a bench prints after
// its tables: one `JSON: {"bench":"<name>", ...,"rows":[{...},...]}` line.
// Commas are managed automatically; nesting via BeginObject/EndObject.
// Rows accumulate in memory and Finish() prints the line, so JSON building
// can interleave with table printing (see Report below).
//
//   JsonRows json("ablation_foo");
//   for (...) {
//     json.BeginRow();
//     json.Num("x", x, 2);
//     json.BeginObject("inner");
//     json.Int("committed", n);
//     json.EndObject();
//     json.EndRow();
//   }
//   json.Finish();
class JsonRows {
 public:
  explicit JsonRows(const std::string& bench_name) {
    out_ = StrFormat("\nJSON: {\"bench\":\"%s\",\"rows\":[",
                     bench_name.c_str());
  }

  void BeginRow() {
    if (row_count_++ > 0) out_ += ",";
    out_ += "{";
    first_.assign(1, true);
  }
  void EndRow() {
    out_ += "}";
    first_.clear();
  }

  void BeginObject(const std::string& key) {
    Key(key);
    out_ += "{";
    first_.push_back(true);
  }
  void EndObject() {
    out_ += "}";
    first_.pop_back();
  }

  void Int(const std::string& key, int64_t v) {
    Key(key);
    out_ += StrFormat("%lld", static_cast<long long>(v));
  }
  void Num(const std::string& key, double v, int precision = 4) {
    Key(key);
    out_ += StrFormat("%.*f", precision, v);
  }
  void Str(const std::string& key, const std::string& v) {
    Key(key);
    out_ += StrFormat("\"%s\"", v.c_str());
  }

  void Finish() {
    out_ += "]}";
    std::puts(out_.c_str());
    out_.clear();
  }

 private:
  void Key(const std::string& key) {
    if (!first_.back()) out_ += ",";
    first_.back() = false;
    out_ += StrFormat("\"%s\":", key.c_str());
  }

  std::string out_;
  size_t row_count_ = 0;
  std::vector<bool> first_;
};

// The one writer behind every ablation bench: each row is built once and
// lands in both the human table and the JSON mirror — no per-bench
// buffer-structs or second emit loop. Table columns and JSON fields can
// still diverge where they should (derived percentages in the table,
// nested raw counters in the JSON) via the TableOnly / Json* escapes.
//
//   Report report("ablation_foo");
//   report.Section("Ablation: foo", {"x", "commit%"}, 14);
//   for (...) {
//     report.BeginRow();
//     report.Num("x", x, 2);                      // table cell + JSON field
//     report.TableOnly(Num(pct, 2));              // table cell only
//     report.JsonInt("committed", n);             // JSON field only
//     report.EndRow();                            // prints the table row
//   }
//   report.Note("shape check: ...");
//   report.Finish();                              // prints the JSON line
class Report {
 public:
  explicit Report(const std::string& bench_name) : json_(bench_name) {}

  // Starts a table: banner + header. Multiple sections share one JSON
  // stream (tag rows with a discriminating field, e.g. Str("mode", ...)).
  void Section(const std::string& title, std::vector<std::string> headers,
               size_t width = 14) {
    Banner(title);
    table_ = TablePrinter(std::move(headers), width);
    table_.PrintHeader();
  }

  void BeginRow() {
    cells_.clear();
    json_.BeginRow();
  }
  void EndRow() {
    json_.EndRow();
    table_.PrintRow(cells_);
  }

  // Both table and JSON.
  void Int(const std::string& key, int64_t v) {
    cells_.push_back(StrFormat("%lld", static_cast<long long>(v)));
    json_.Int(key, v);
  }
  void Num(const std::string& key, double v, int precision = 4) {
    cells_.push_back(bench::Num(v, precision));
    json_.Num(key, v, precision);
  }
  void Str(const std::string& key, const std::string& v) {
    cells_.push_back(v);
    json_.Str(key, v);
  }

  // Table only (derived display values).
  void TableOnly(const std::string& cell) { cells_.push_back(cell); }

  // JSON only (raw counters, nested breakdowns).
  void JsonInt(const std::string& key, int64_t v) { json_.Int(key, v); }
  void JsonNum(const std::string& key, double v, int precision = 4) {
    json_.Num(key, v, precision);
  }
  void JsonStr(const std::string& key, const std::string& v) {
    json_.Str(key, v);
  }
  void BeginObject(const std::string& key) { json_.BeginObject(key); }
  void EndObject() { json_.EndObject(); }

  void Note(const std::string& text) {
    std::puts("");
    std::puts(text.c_str());
  }

  void Finish() { json_.Finish(); }

 private:
  JsonRows json_;
  TablePrinter table_{{}};
  std::vector<std::string> cells_;
};

// Observability flags shared by every bench binary:
//   --trace[=N]       enable trace logs with capacity N (default 4096)
//   --obs-out=PREFIX  write PREFIX.trace.json (Chrome trace_event),
//                     PREFIX.metrics.prom (Prometheus text) and
//                     PREFIX.events.jsonl after the run; implies --trace
struct ObsFlags {
  size_t trace_capacity = 0;  // 0 = tracing off.
  std::string out_prefix;     // Empty = no files written.

  bool enabled() const { return trace_capacity > 0; }
};

inline ObsFlags ParseObsFlags(int argc, char** argv) {
  ObsFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      flags.trace_capacity = 4096;
    } else if (arg.rfind("--trace=", 0) == 0) {
      flags.trace_capacity =
          static_cast<size_t>(std::strtoull(arg.c_str() + 8, nullptr, 10));
    } else if (arg.rfind("--obs-out=", 0) == 0) {
      flags.out_prefix = arg.substr(10);
      if (flags.trace_capacity == 0) flags.trace_capacity = 4096;
    }
  }
  return flags;
}

inline bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

// Writes the three exporter outputs for one traced run. No-op without
// --obs-out.
inline void WriteObsOutputs(const ObsFlags& flags,
                            const std::vector<gtm::TraceEvent>& events,
                            const gtm::GtmMetrics::Snapshot& snapshot) {
  if (flags.out_prefix.empty()) return;
  WriteTextFile(flags.out_prefix + ".trace.json", obs::ToChromeTrace(events));
  WriteTextFile(flags.out_prefix + ".metrics.prom",
                obs::ToPrometheus(snapshot));
  WriteTextFile(flags.out_prefix + ".events.jsonl", obs::ToJsonl(events));
  std::fprintf(stderr, "obs: wrote %s.{trace.json,metrics.prom,events.jsonl} (%zu events)\n",
               flags.out_prefix.c_str(), events.size());
}

// With --trace or --obs-out, reruns `spec` with tracing on and writes that
// run's exporter outputs.
inline void RunTraced(const ObsFlags& flags, workload::GtmExperimentSpec spec,
                      const gtm::GtmOptions& options = {}) {
  if (!flags.enabled()) return;
  spec.trace_capacity = flags.trace_capacity;
  const workload::GtmExperimentResult traced =
      workload::RunGtmExperiment(spec, options);
  WriteObsOutputs(flags, traced.trace_events, traced.snapshot);
}

}  // namespace preserial::bench

#endif  // PRESERIAL_BENCH_BENCH_UTIL_H_
