#include "trace.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};

// Lanes outlive their threads, so a lane's spans can be read after the
// thread that recorded them was joined.
std::mutex g_lanes_mu;
std::vector<std::unique_ptr<Lane>>& AllLanes() {
  static auto* lanes = new std::vector<std::unique_ptr<Lane>>();
  return *lanes;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lk(g_lanes_mu);
  for (auto& lane : AllLanes()) {
    lane->spans.clear();
    lane->spans.shrink_to_fit();
    lane->open.clear();
  }
}

std::vector<const Lane*> Tracer::Lanes() {
  std::lock_guard<std::mutex> lk(g_lanes_mu);
  std::vector<const Lane*> out;
  for (const auto& lane : AllLanes()) {
    if (!lane->spans.empty()) out.push_back(lane.get());
  }
  return out;
}

Lane* Tracer::ThisLane() {
  thread_local Lane* lane = nullptr;
  if (lane == nullptr) {
    std::lock_guard<std::mutex> lk(g_lanes_mu);
    AllLanes().push_back(std::make_unique<Lane>());
    lane = AllLanes().back().get();
  }
  return lane;
}

bool Tracer::WriteCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("lane,index,parent,txn,name,start_ns,end_ns\n", f);
  size_t lane_no = 0;
  for (const Lane* lane : Lanes()) {
    for (size_t i = 0; i < lane->spans.size(); ++i) {
      const Span& s = lane->spans[i];
      std::fprintf(f, "%zu,%zu,%d,%llu,%s,%lld,%lld\n", lane_no, i, s.parent,
                   static_cast<unsigned long long>(s.txn),
                   kSpanNames[static_cast<size_t>(s.kind)],
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    ++lane_no;
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t txn) {
  if (!Tracer::enabled()) return;
  lane_ = Tracer::ThisLane();
  Span s;
  s.kind = kind;
  s.txn = txn;
  if (!lane_->open.empty()) {
    s.parent = lane_->open.back();
    if (s.txn == 0) s.txn = lane_->spans[s.parent].txn;
  }
  index_ = static_cast<int32_t>(lane_->spans.size());
  lane_->open.push_back(index_);
  s.start_ns = NowNs();
  lane_->spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (lane_ == nullptr) return;
  Span& s = lane_->spans[index_];
  s.end_ns = NowNs();
  lane_->open.pop_back();
  if (s.parent >= 0) lane_->spans[s.parent].child_ns += s.duration_ns();
}

void ScopedSpan::set_txn(uint64_t txn) {
  if (lane_ != nullptr) lane_->spans[index_].txn = txn;
}

std::vector<SpanStats> AggregateSpans() {
  std::vector<SpanStats> out(static_cast<size_t>(SpanKind::kCount));
  for (const Lane* lane : Tracer::Lanes()) {
    for (const Span& s : lane->spans) {
      SpanStats& st = out[static_cast<size_t>(s.kind)];
      ++st.count;
      st.total_ns += s.duration_ns();
      st.self_ns += s.self_ns();
      st.durations_ns.push_back(s.duration_ns());
    }
  }
  return out;
}

}  // namespace perfbench
