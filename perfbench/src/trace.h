#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans are opened
// and closed around calls into the program's public layer interfaces (see
// decorators.h), kept per thread while the run measures, and aggregated or
// written out once it ends. Tracing is off unless Tracer::Enable(true), and
// then a ScopedSpan costs one branch.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Every span name the benchmark records. The name of kind K is
// kSpanNames[K].
enum class SpanKind : uint8_t {
  kRun,             // workload.run: GtmRunner::Run (the simulated harness).
  kBegin,           // gtm.begin: GtmEndpoint::Begin.
  kInvoke,          // gtm.invoke: Invoke / InvokeOnce.
  kRead,            // gtm.read: ReadLocal.
  kCommit,          // gtm.commit: RequestCommit / CommitOnce.
  kAbort,           // gtm.abort: RequestAbort / AbortOnce.
  kSleep,           // gtm.sleep: Sleep / SleepOnce.
  kAwake,           // gtm.awake: Awake / AwakeOnce.
  kStateOf,         // gtm.state_of: StateOf.
  kEvents,          // gtm.events: TakeEvents.
  kSweep,           // gtm.sweep: AbortExpiredWaits.
  kPrepare,         // cluster.2pc.prepare: ShardBackend::Prepare.
  kCommitPrepared,  // cluster.2pc.commit_prepared.
  kAbortBranch,     // cluster.2pc.abort_branch.
  kWalAppend,       // storage.wal.append: a Database's WalStorage::Append.
  kWalSync,         // storage.wal.sync.
  kCoordWalAppend,  // cluster.coord_wal.append: the coordinator's WAL.
  kCoordWalSync,    // cluster.coord_wal.sync.
  kSvcBegin,        // gtm.service.begin: GtmService::Begin.
  kSvcInvoke,       // gtm.service.invoke.
  kSvcRead,         // gtm.service.read.
  kSvcCommit,       // gtm.service.commit.
  kCount,
};

inline constexpr const char* kSpanNames[] = {
    "workload.run",        "gtm.begin",
    "gtm.invoke",          "gtm.read",
    "gtm.commit",          "gtm.abort",
    "gtm.sleep",           "gtm.awake",
    "gtm.state_of",        "gtm.events",
    "gtm.sweep",           "cluster.2pc.prepare",
    "cluster.2pc.commit_prepared", "cluster.2pc.abort_branch",
    "storage.wal.append",  "storage.wal.sync",
    "cluster.coord_wal.append", "cluster.coord_wal.sync",
    "gtm.service.begin",   "gtm.service.invoke",
    "gtm.service.read",    "gtm.service.commit",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<size_t>(SpanKind::kCount));

int64_t NowNs();
// CPU time the calling thread has used. Unlike the wall clock it does not
// advance while the host deschedules the thread.
int64_t ThreadCpuNs();
// CPU time all of the process's threads have used.
int64_t ProcessCpuNs();

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // Time covered by this span's direct children.
  uint64_t txn = 0;      // Transaction the span belongs to (0 = none).
  int32_t parent = -1;   // Index of the parent span in the same lane.
  SpanKind kind = SpanKind::kRun;

  int64_t duration_ns() const { return end_ns - start_ns; }
  int64_t self_ns() const { return duration_ns() - child_ns; }
};

// Spans of one thread. Spans never cross threads, so a parent is always in
// the child's own lane.
struct Lane {
  std::vector<Span> spans;
  std::vector<int32_t> open;  // Stack of open span indices.
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  // Drops every recorded span. Call only while no traced thread runs.
  static void Clear();
  // Every lane that recorded a span since the last Clear. Call only after
  // the traced threads have been joined.
  static std::vector<const Lane*> Lanes();
  // Writes every span as CSV (lane,index,parent,txn,name,start_ns,end_ns).
  static bool WriteCsv(const std::string& path);

  static Lane* ThisLane();
};

// Records one span from construction to destruction. A span opened with
// txn 0 takes its parent's transaction, so nested layer calls (2PC branch
// votes, WAL appends) carry the id of the transaction that caused them.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t txn = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // For spans whose transaction is known only after the call (Begin).
  void set_txn(uint64_t txn);

 private:
  Lane* lane_ = nullptr;
  int32_t index_ = -1;
};

// Per-name aggregate over every lane.
struct SpanStats {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<int64_t> durations_ns;  // In recording order, per lane.

  double mean_us() const {
    return count > 0 ? 1e-3 * static_cast<double>(total_ns) /
                           static_cast<double>(count)
                     : 0.0;
  }
  double self_mean_us() const {
    return count > 0 ? 1e-3 * static_cast<double>(self_ns) /
                           static_cast<double>(count)
                     : 0.0;
  }
};

std::vector<SpanStats> AggregateSpans();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
