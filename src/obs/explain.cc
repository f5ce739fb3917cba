#include "obs/explain.h"

#include "common/strings.h"

namespace preserial::obs {

namespace {

std::string RenderHolder(const HolderInfo& h) {
  std::string s = StrFormat("txn %llu", static_cast<unsigned long long>(h.txn));
  if (h.committing) s += " [committing]";
  if (h.sleeping) s += " [sleeping]";
  s += " {";
  bool first = true;
  for (const auto& [member, cls] : h.ops) {
    if (!first) s += ", ";
    first = false;
    s += StrFormat("m%zu:%s", static_cast<size_t>(member), cls.c_str());
  }
  s += "}";
  return s;
}

}  // namespace

const SleeperVerdict* GtmExplain::VerdictFor(TxnId txn) const {
  for (const SleeperVerdict& v : sleepers) {
    if (v.txn == txn) return &v;
  }
  return nullptr;
}

std::string GtmExplain::ToString() const {
  std::string out = StrFormat("=== GTM explain @ %.3f", now);
  if (shard >= 0) out += StrFormat(" [shard %d]", shard);
  out += " ===\n";

  out += StrFormat("objects (%zu live):\n", objects.size());
  for (const ObjectInfo& o : objects) {
    out += StrFormat("  %s  (X_committed summary slots: %zu)\n",
                     o.id.c_str(), o.committed_retained);
    for (const HolderInfo& h : o.holders) {
      out += "    holds   " + RenderHolder(h) + "\n";
    }
    for (const WaitInfo& w : o.waiters) {
      out += StrFormat(
          "    waits   txn %llu m%zu:%s since %.3f (%.3fs, prio %d)\n",
          static_cast<unsigned long long>(w.txn),
          static_cast<size_t>(w.member), w.op_class.c_str(), w.since,
          w.waited, w.priority);
    }
  }

  out += StrFormat("transactions (%zu live):\n", txns.size());
  for (const TxnInfo& t : txns) {
    std::string objs;
    for (const gtm::ObjectId& o : t.involved) {
      if (!objs.empty()) objs += ",";
      objs += o;
    }
    out += StrFormat(
        "  txn %-4llu %-10s prio %d age %.3fs waited %.3fs slept %.3fs "
        "ops %lld [%s]\n",
        static_cast<unsigned long long>(t.txn), gtm::TxnStateName(t.state),
        t.priority, t.age, t.total_wait_time, t.total_sleep_time,
        static_cast<long long>(t.ops_executed), objs.c_str());
  }

  out += StrFormat("waits-for edges (%zu):\n", wait_edges.size());
  for (const WaitEdge& e : wait_edges) {
    out += StrFormat("  txn %llu -> txn %llu on %s\n",
                     static_cast<unsigned long long>(e.waiter),
                     static_cast<unsigned long long>(e.holder),
                     e.object.c_str());
  }

  out += StrFormat("sleepers (%zu):\n", sleepers.size());
  for (const SleeperVerdict& v : sleepers) {
    out += StrFormat("  txn %llu asleep since %.3f (%.3fs): ",
                     static_cast<unsigned long long>(v.txn), v.sleep_since,
                     v.asleep_for);
    if (v.will_abort) {
      out += StrFormat("AWAKE WILL ABORT — %s\n", v.reason.c_str());
    } else {
      out += "awake would succeed\n";
    }
  }
  return out;
}

std::string ClusterExplain::ToString() const {
  std::string out =
      StrFormat("=== cluster explain @ %.3f: %zu shard(s) ===\n", now,
                shards.size());
  for (const GtmExplain& s : shards) out += s.ToString();
  return out;
}

}  // namespace preserial::obs
