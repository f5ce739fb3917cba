#include "gtm/trace.h"

#include "common/strings.h"
#include "obs/trace_context.h"

namespace preserial::gtm {

// Adding a TraceEventKind? Extend TraceEventKindName below, then bump this
// count (and kTraceEventKindCount follows the last enumerator in trace.h).
static_assert(kTraceEventKindCount == 25,
              "TraceEventKind changed: update TraceEventKindName and this "
              "static_assert together");

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kBegin:
      return "BEGIN";
    case TraceEventKind::kGrant:
      return "GRANT";
    case TraceEventKind::kApply:
      return "APPLY";
    case TraceEventKind::kWait:
      return "WAIT";
    case TraceEventKind::kPrepare:
      return "PREPARE";
    case TraceEventKind::kCommit:
      return "COMMIT";
    case TraceEventKind::kAbort:
      return "ABORT";
    case TraceEventKind::kSleep:
      return "SLEEP";
    case TraceEventKind::kAwake:
      return "AWAKE";
    case TraceEventKind::kAwakeAbort:
      return "AWAKE_ABORT";
    case TraceEventKind::kDeadlockRefusal:
      return "DEADLOCK_REFUSAL";
    case TraceEventKind::kAdmissionDenial:
      return "ADMISSION_DENIAL";
    case TraceEventKind::kDuplicateSuppressed:
      return "DUPLICATE_SUPPRESSED";
    case TraceEventKind::kShip:
      return "SHIP";
    case TraceEventKind::kShipAck:
      return "SHIP_ACK";
    case TraceEventKind::kPromote:
      return "PROMOTE";
    case TraceEventKind::kClientSend:
      return "CLIENT_SEND";
    case TraceEventKind::kClientRetry:
      return "CLIENT_RETRY";
    case TraceEventKind::kClientDegrade:
      return "CLIENT_DEGRADE";
    case TraceEventKind::kClientReconnect:
      return "CLIENT_RECONNECT";
    case TraceEventKind::kBranchBegin:
      return "BRANCH_BEGIN";
    case TraceEventKind::kTwoPcPrepare:
      return "2PC_PREPARE";
    case TraceEventKind::kTwoPcCommit:
      return "2PC_COMMIT";
    case TraceEventKind::kTwoPcAbort:
      return "2PC_ABORT";
    case TraceEventKind::kWatchdog:
      return "WATCHDOG";
  }
  return "?";
}

std::string TraceEvent::ToString() const {
  std::string s = StrFormat("[%10.3f] txn %-4llu %-16s", time,
                            static_cast<unsigned long long>(txn),
                            TraceEventKindName(kind));
  if (!object.empty()) s += " " + object;
  if (!detail.empty()) s += " (" + detail + ")";
  if (shard >= 0) s += StrFormat(" [shard %d]", shard);
  if (trace != 0) {
    s += StrFormat(" {trace=%llu span=%llu parent=%llu}",
                   static_cast<unsigned long long>(trace),
                   static_cast<unsigned long long>(span),
                   static_cast<unsigned long long>(parent));
  }
  return s;
}

void TraceLog::Enable(size_t capacity) {
  capacity_ = capacity;
  ring_.clear();
  next_ = 0;
}

TraceEvent* TraceLog::Append(TimePoint time, TraceEventKind kind, TxnId txn,
                             std::string object, std::string detail) {
  ++total_recorded_;
  // Disabled: no context read, no allocation.
  if (capacity_ == 0) return nullptr;
  const obs::TraceContext& ctx = obs::CurrentContext();
  TraceEvent e;
  e.time = time;
  e.kind = kind;
  e.txn = txn;
  e.object = std::move(object);
  e.detail = std::move(detail);
  e.trace = ctx.trace;
  e.span = ctx.span;
  e.parent = ctx.parent;
  e.shard = default_shard_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[next_] = std::move(e);
  }
  TraceEvent* stored = &ring_[next_];
  next_ = (next_ + 1) % capacity_;
  return stored;
}

void TraceLog::Record(TimePoint time, TraceEventKind kind, TxnId txn,
                      std::string object, std::string detail) {
  Append(time, kind, txn, std::move(object), std::move(detail));
}

void TraceLog::RecordOp(TimePoint time, TraceEventKind kind, TxnId txn,
                        std::string object, semantics::MemberId member,
                        const semantics::Operation& op, std::string detail) {
  TraceEvent* e =
      Append(time, kind, txn, std::move(object), std::move(detail));
  if (e == nullptr) return;
  e->has_op = true;
  e->member = member;
  e->op = op;
}

std::vector<TraceEvent> TraceLog::Snapshot() const {
  // Oldest entry sits at next_ once the ring is full, else at 0.
  const size_t start = ring_.size() == capacity_ ? next_ : 0;
  std::vector<TraceEvent> out(ring_.begin() + start, ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + start);
  return out;
}

std::vector<TraceEvent> TraceLog::ForTxn(TxnId txn) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : Snapshot()) {
    if (e.txn == txn) out.push_back(e);
  }
  return out;
}

void TraceLog::Clear() {
  ring_.clear();
  next_ = 0;
}

std::string TraceLog::Dump() const {
  std::string out;
  for (const TraceEvent& e : Snapshot()) {
    out += e.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace preserial::gtm
