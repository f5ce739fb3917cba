#include "check/checker.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "semantics/commutativity.h"
#include "semantics/compatibility.h"
#include "semantics/reconcile.h"

namespace preserial::check {
namespace {

using gtm::Cell;
using gtm::ObjectId;
using gtm::TraceEvent;
using gtm::TraceEventKind;
using semantics::MemberId;
using semantics::OpClass;
using semantics::Operation;
using storage::Value;

std::string CellName(const Cell& cell) {
  return StrFormat("%s#%zu", cell.object.c_str(), cell.member);
}

// --- history digestion ----------------------------------------------------------

// One disconnection episode of a transaction, as event-index window plus the
// paper's timestamps (A_t_sleep, and the wake instant Algorithm 9 ran at).
struct SleepWindow {
  size_t begin = 0;
  size_t end = 0;  // kAwake / kPrepare / terminal index, or history end.
  TimePoint slept_at = 0;
  bool woke = false;         // Closed by a successful Awake or Prepare.
  bool awake_abort = false;  // Closed by kAwakeAbort.
  TimePoint wake_time = 0;
};

// Everything a transaction did to one (object, member) cell.
struct CellRecord {
  size_t first_apply = 0;
  OpClass cls = OpClass::kRead;  // Strongest class (read upgrades once).
  size_t upgrade_index = 0;      // Index of the first mutating apply.
  std::vector<Operation> ops;    // Applied operations, in order.
};

// A queued invocation's lifetime (granted waits close at the grant's apply;
// refused ones at the refusal; the rest at the transaction's terminal).
struct WaitRecord {
  size_t begin = 0;
  size_t end = 0;
  Cell cell;
  OpClass cls = OpClass::kRead;
};

struct TxnRecord {
  TxnId id = kInvalidTxnId;
  std::map<Cell, CellRecord> cells;
  std::vector<SleepWindow> sleeps;
  std::vector<WaitRecord> waits;
  std::optional<size_t> commit;
  TimePoint commit_time = 0;
  std::optional<size_t> prepare;
  std::optional<size_t> terminal;

  bool HasOpenSleep(size_t horizon) const {
    return !sleeps.empty() && sleeps.back().end == horizon;
  }
};

struct Digest {
  std::map<TxnId, TxnRecord> txns;
};

Digest DigestEvents(const History& h) {
  Digest d;
  const size_t n = h.events.size();
  for (size_t i = 0; i < n; ++i) {
    const TraceEvent& e = h.events[i];
    if (e.txn == kInvalidTxnId) continue;
    TxnRecord& t = d.txns[e.txn];
    t.id = e.txn;
    switch (e.kind) {
      case TraceEventKind::kApply: {
        const Cell cell{e.object, e.member};
        auto [it, fresh] = t.cells.try_emplace(cell);
        CellRecord& c = it->second;
        if (fresh) c.first_apply = i;
        if (e.op.cls != OpClass::kRead && c.cls == OpClass::kRead) {
          c.cls = e.op.cls;
          c.upgrade_index = i;
        }
        c.ops.push_back(e.op);
        for (WaitRecord& w : t.waits) {
          if (w.end == n && w.cell == cell) w.end = i;
        }
        break;
      }
      case TraceEventKind::kWait:
        t.waits.push_back(WaitRecord{i, n, Cell{e.object, e.member},
                                     e.op.cls});
        break;
      case TraceEventKind::kDeadlockRefusal:
        // The refused entry was backed out of the queue.
        for (WaitRecord& w : t.waits) {
          if (w.end == n && w.cell.object == e.object) w.end = i;
        }
        break;
      case TraceEventKind::kSleep: {
        SleepWindow w;
        w.begin = i;
        w.end = n;
        w.slept_at = e.time;
        t.sleeps.push_back(w);
        break;
      }
      case TraceEventKind::kAwake:
        if (t.HasOpenSleep(n)) {
          SleepWindow& w = t.sleeps.back();
          w.end = i;
          w.woke = true;
          w.wake_time = e.time;
        }
        break;
      case TraceEventKind::kPrepare:
        t.prepare = i;
        // Prepare of a Sleeping transaction votes as an implicit awake
        // (Algorithm 9 runs); from here it is a live Committing holder.
        if (t.HasOpenSleep(n)) {
          SleepWindow& w = t.sleeps.back();
          w.end = i;
          w.woke = true;
          w.wake_time = e.time;
        }
        break;
      case TraceEventKind::kCommit:
        t.commit = i;
        t.commit_time = e.time;
        t.terminal = i;
        if (t.HasOpenSleep(n)) t.sleeps.back().end = i;
        for (WaitRecord& w : t.waits) {
          if (w.end == n) w.end = i;
        }
        break;
      case TraceEventKind::kAbort:
      case TraceEventKind::kAwakeAbort:
        t.terminal = i;
        if (t.HasOpenSleep(n)) {
          SleepWindow& w = t.sleeps.back();
          w.end = i;
          if (e.kind == TraceEventKind::kAwakeAbort) {
            w.awake_abort = true;
            w.wake_time = e.time;
          }
        }
        for (WaitRecord& w : t.waits) {
          if (w.end == n) w.end = i;
        }
        break;
      default:
        break;  // Client / transport / replication / cluster lanes.
    }
  }
  return d;
}

// --- value / state helpers ------------------------------------------------------

using State = std::map<Cell, Value>;

bool StatesEquivalent(const State& a, const State& b, double eps,
                      std::string* diff) {
  for (const auto& [cell, va] : a) {
    auto it = b.find(cell);
    const Value vb = it == b.end() ? Value::Null() : it->second;
    if (!ValuesEquivalent(va, vb, eps)) {
      if (diff != nullptr) {
        *diff = StrFormat("%s: %s vs %s", CellName(cell).c_str(),
                          va.ToString().c_str(), vb.ToString().c_str());
      }
      return false;
    }
  }
  return true;
}

std::string StateKey(const State& state) {
  std::string s;
  for (const auto& [cell, v] : state) v.EncodeTo(&s);
  return s;
}

// --- Definition 1: concurrent holders must be compatible ------------------------

// [begin, end) event-index span during which a txn actively held `cls` on a
// cell — sleep windows removed, read/upgraded-class phases split.
struct Span {
  size_t begin = 0;
  size_t end = 0;
  OpClass cls = OpClass::kRead;
};

std::vector<Span> ActiveSpans(const TxnRecord& t, const CellRecord& c,
                              size_t horizon) {
  const size_t end = t.terminal.value_or(horizon);
  std::vector<Span> pieces;
  if (c.cls != OpClass::kRead && c.upgrade_index > c.first_apply) {
    pieces.push_back(Span{c.first_apply, c.upgrade_index, OpClass::kRead});
    pieces.push_back(Span{c.upgrade_index, end, c.cls});
  } else {
    pieces.push_back(Span{c.first_apply, end, c.cls});
  }
  for (const SleepWindow& w : t.sleeps) {
    std::vector<Span> next;
    for (const Span& s : pieces) {
      if (w.end <= s.begin || w.begin >= s.end) {
        next.push_back(s);
        continue;
      }
      if (s.begin < w.begin) next.push_back(Span{s.begin, w.begin, s.cls});
      if (w.end < s.end) next.push_back(Span{w.end, s.end, s.cls});
    }
    pieces = std::move(next);
  }
  return pieces;
}

void CheckDefinition1(const History& h, const Digest& d,
                      std::vector<Violation>* out) {
  struct Holder {
    TxnId txn;
    MemberId member;
    Span span;
  };
  std::map<ObjectId, std::vector<Holder>> by_object;
  const size_t horizon = h.events.size();
  for (const auto& [id, t] : d.txns) {
    for (const auto& [cell, c] : t.cells) {
      for (const Span& s : ActiveSpans(t, c, horizon)) {
        if (s.begin < s.end) {
          by_object[cell.object].push_back(Holder{id, cell.member, s});
        }
      }
    }
  }
  for (const auto& [object, holders] : by_object) {
    auto dit = h.deps.find(object);
    const semantics::LogicalDependencies deps =
        dit == h.deps.end() ? semantics::LogicalDependencies{} : dit->second;
    for (size_t i = 0; i < holders.size(); ++i) {
      for (size_t j = i + 1; j < holders.size(); ++j) {
        const Holder& a = holders[i];
        const Holder& b = holders[j];
        if (a.txn == b.txn) continue;
        if (!deps.Dependent(a.member, b.member)) continue;
        const size_t lo = std::max(a.span.begin, b.span.begin);
        const size_t hi = std::min(a.span.end, b.span.end);
        if (lo >= hi) continue;
        if (semantics::Compatible(a.span.cls, b.span.cls)) continue;
        out->push_back(Violation{
            "definition1",
            StrFormat("txn %llu holds %s and txn %llu holds %s on %s "
                      "(members %zu/%zu, dependent) concurrently over "
                      "events [%zu, %zu)",
                      static_cast<unsigned long long>(a.txn),
                      OpClassName(a.span.cls),
                      static_cast<unsigned long long>(b.txn),
                      OpClassName(b.span.cls), object.c_str(), a.member,
                      b.member, lo, hi)});
      }
    }
  }
}

// --- reconciliation replay (eqs. 1-2 + CHECK bounds) ----------------------------

void CheckReconciliation(const History& h, const Digest& d, double eps,
                         std::vector<Violation>* out) {
  State perm = h.initial;
  struct Copy {
    Value read;
    Value temp;
  };
  std::map<TxnId, std::map<Cell, Copy>> copies;
  for (size_t i = 0; i < h.events.size(); ++i) {
    const TraceEvent& e = h.events[i];
    switch (e.kind) {
      case TraceEventKind::kApply: {
        const Cell cell{e.object, e.member};
        auto pit = perm.find(cell);
        if (pit == perm.end()) break;  // Object unknown to the snapshot.
        auto& copy = copies[e.txn];
        auto [cit, fresh] = copy.try_emplace(cell);
        if (fresh) {
          // Fresh grant: X_read = A_temp = X_permanent (Alg 2).
          cit->second.read = pit->second;
          cit->second.temp = pit->second;
        }
        Result<Value> next = semantics::Transition(cit->second.temp, e.op);
        if (!next.ok()) {
          out->push_back(Violation{
              "reconciliation",
              StrFormat("replaying %s by txn %llu on %s failed: %s",
                        e.op.ToString().c_str(),
                        static_cast<unsigned long long>(e.txn),
                        CellName(cell).c_str(),
                        next.status().message().c_str())});
          break;
        }
        cit->second.temp = std::move(next).value();
        break;
      }
      case TraceEventKind::kCommit: {
        auto cop = copies.find(e.txn);
        if (cop == copies.end()) break;  // Read-free or op-free commit.
        auto tit = d.txns.find(e.txn);
        if (tit == d.txns.end()) break;
        for (auto& [cell, copy] : cop->second) {
          const CellRecord& cr = tit->second.cells.at(cell);
          if (cr.cls == OpClass::kRead) continue;  // Reads install nothing.
          Result<Value> merged = semantics::Reconcile(
              cr.cls, copy.read, copy.temp, perm.at(cell));
          if (!merged.ok()) {
            out->push_back(Violation{
                "reconciliation",
                StrFormat("merging txn %llu on %s failed: %s",
                          static_cast<unsigned long long>(e.txn),
                          CellName(cell).c_str(),
                          merged.status().message().c_str())});
            continue;
          }
          const Value installed = std::move(merged).value();
          auto bit = h.min_bound.find(cell);
          if (bit != h.min_bound.end() && installed.is_numeric()) {
            const double v = installed.ToDouble().value();
            if (v < bit->second - eps) {
              out->push_back(Violation{
                  "constraint",
                  StrFormat("txn %llu installed %s into %s below CHECK "
                            "bound %g",
                            static_cast<unsigned long long>(e.txn),
                            installed.ToString().c_str(),
                            CellName(cell).c_str(), bit->second)});
            }
          }
          perm[cell] = installed;
        }
        copies.erase(cop);
        break;
      }
      case TraceEventKind::kAbort:
      case TraceEventKind::kAwakeAbort:
        copies.erase(e.txn);
        break;
      default:
        break;
    }
  }
  std::string diff;
  if (!StatesEquivalent(perm, h.final_state, eps, &diff)) {
    out->push_back(Violation{
        "reconciliation",
        "replaying the commit sequence through eqs. 1-2 predicts a "
        "different permanent state than the GTM installed: " +
            diff});
  }
  for (const auto& [cell, v] : h.final_state) {
    auto bit = h.min_bound.find(cell);
    if (bit != h.min_bound.end() && v.is_numeric() &&
        v.ToDouble().value() < bit->second - eps) {
      out->push_back(Violation{
          "constraint", StrFormat("final value %s of %s below CHECK bound %g",
                                  v.ToString().c_str(),
                                  CellName(cell).c_str(), bit->second)});
    }
  }
}

// --- serial-equivalence search --------------------------------------------------

// Applies every operation of `t` to `state` through the reference serial
// interpreter (semantics::Transition); nullopt when some transition is
// undefined in this order.
std::optional<State> ApplySerially(State state, const TxnRecord& t) {
  for (const auto& [cell, c] : t.cells) {
    auto it = state.find(cell);
    if (it == state.end()) continue;
    Value v = it->second;
    for (const Operation& op : c.ops) {
      Result<Value> next = semantics::Transition(v, op);
      if (!next.ok()) return std::nullopt;
      v = std::move(next).value();
    }
    it->second = std::move(v);
  }
  return state;
}

struct SerialSearch {
  const std::vector<const TxnRecord*>& txns;
  const State& target;
  double eps;
  size_t orders_tried = 0;
  std::unordered_set<std::string> seen;

  bool Dfs(State state, uint64_t used) {
    if (used == (uint64_t{1} << txns.size()) - 1) {
      ++orders_tried;
      return StatesEquivalent(state, target, eps, nullptr) &&
             StatesEquivalent(target, state, eps, nullptr);
    }
    std::string key = StateKey(state);
    for (int b = 0; b < 8; ++b) {
      key += static_cast<char>((used >> (8 * b)) & 0xff);
    }
    if (!seen.insert(key).second) return false;
    for (size_t i = 0; i < txns.size(); ++i) {
      if ((used >> i) & 1) continue;
      std::optional<State> next = ApplySerially(state, *txns[i]);
      if (!next.has_value()) continue;
      if (Dfs(std::move(*next), used | (uint64_t{1} << i))) return true;
    }
    return false;
  }
};

void CheckSerialEquivalence(const History& h, const Digest& d,
                            const CheckOptions& opts, CheckReport* report) {
  // Committed transactions with at least one mutating operation, in commit
  // order (read-only commits have no effect and constrain nothing).
  std::vector<const TxnRecord*> committed;
  for (const auto& [id, t] : d.txns) {
    if (!t.commit.has_value()) continue;
    bool mutates = false;
    for (const auto& [cell, c] : t.cells) {
      if (c.cls != OpClass::kRead) mutates = true;
    }
    if (mutates) committed.push_back(&t);
  }
  std::sort(committed.begin(), committed.end(),
            [](const TxnRecord* a, const TxnRecord* b) {
              return *a->commit < *b->commit;
            });
  report->committed_txns = committed.size();
  // Small enough that a failed witness gets exhaustively confirmed below —
  // i.e. a "no serial order" verdict would be exact, not witness-only.
  report->exact_search =
      committed.size() <= opts.exact_search_limit && committed.size() < 63;

  // Commit order is the expected witness: with correct reconciliation, the
  // merged effects compose exactly like a serial run in commit order.
  std::optional<State> state = h.initial;
  for (const TxnRecord* t : committed) {
    state = ApplySerially(std::move(*state), *t);
    if (!state.has_value()) break;
  }
  report->orders_tried = 1;
  std::string diff;
  if (state.has_value() &&
      StatesEquivalent(*state, h.final_state, opts.epsilon, &diff) &&
      StatesEquivalent(h.final_state, *state, opts.epsilon, &diff)) {
    return;
  }

  if (report->exact_search) {
    SerialSearch search{committed, h.final_state, opts.epsilon, 0, {}};
    const bool found = search.Dfs(h.initial, 0);
    report->orders_tried += search.orders_tried;
    if (found) return;
    report->violations.push_back(Violation{
        "serial",
        StrFormat("no serial order of the %zu committed transactions "
                  "reproduces the final state (%zu orders tried; commit "
                  "order differs at %s)",
                  committed.size(), search.orders_tried,
                  diff.empty() ? "<undefined transition>" : diff.c_str())});
    return;
  }
  report->violations.push_back(Violation{
      "serial",
      StrFormat("commit-order serial replay of %zu committed transactions "
                "does not reproduce the final state (%s); too many for the "
                "exact search",
                committed.size(),
                diff.empty() ? "<undefined transition>" : diff.c_str())});
}

// --- Algorithm 9: the awake rule ------------------------------------------------

// Classes the sleeper holds/requests per object at its wake instant — the
// mirror of the footprint FindAwakeConflict evaluates: granted (applied)
// classes merged with the classes of its still-queued invocations, granted
// winning per member. Both Algorithm 9 rules apply to the whole footprint:
// a queued op is re-admitted at the wake, so a live incompatible holder or
// an incompatible commit newer than the sleep dooms it like a held grant.
std::map<ObjectId, std::map<MemberId, OpClass>> SleeperOps(
    const TxnRecord& t, size_t wake_index, size_t horizon) {
  std::map<ObjectId, std::map<MemberId, OpClass>> out;
  for (const auto& [cell, c] : t.cells) {
    if (c.first_apply >= wake_index) continue;
    const OpClass cls =
        (c.cls != OpClass::kRead && c.upgrade_index < wake_index)
            ? c.cls
            : OpClass::kRead;
    out[cell.object][cell.member] = cls;
  }
  for (const WaitRecord& w : t.waits) {
    if (w.begin >= wake_index) continue;
    const bool open = w.end >= wake_index || w.end == horizon;
    if (!open) continue;
    // emplace: a granted op on the same member takes over.
    out[w.cell.object].emplace(w.cell.member, w.cls);
  }
  return out;
}

void CheckAlgorithm9(const History& h, const Digest& d,
                     std::vector<Violation>* out) {
  const size_t horizon = h.events.size();
  for (const auto& [id, t] : d.txns) {
    for (const SleepWindow& w : t.sleeps) {
      if (!w.woke && !w.awake_abort) continue;
      const size_t wake = w.end;
      const auto own = SleeperOps(t, wake, horizon);

      std::string conflict;  // First conflict found, rendered.
      for (const auto& [object, ops] : own) {
        if (!conflict.empty()) break;
        auto dit = h.deps.find(object);
        const semantics::LogicalDependencies deps =
            dit == h.deps.end() ? semantics::LogicalDependencies{}
                                : dit->second;
        auto incompatible = [&](MemberId om, OpClass oc, MemberId m,
                                OpClass c) {
          return deps.Dependent(om, m) && !semantics::Compatible(oc, c);
        };
        for (const auto& [uid, u] : d.txns) {
          if (uid == id || !conflict.empty()) continue;
          // Committed since the sleep: the staleness rule X_tc > A_t_sleep.
          if (u.commit.has_value() && *u.commit < wake &&
              u.commit_time > w.slept_at) {
            for (const auto& [cell, c] : u.cells) {
              if (cell.object != object) continue;
              for (const auto& [om, oc] : ops) {
                if (incompatible(om, oc, cell.member, c.cls)) {
                  conflict = StrFormat(
                      "txn %llu committed %s on %s at %.6f > sleep %.6f",
                      static_cast<unsigned long long>(uid),
                      OpClassName(c.cls), CellName(cell).c_str(),
                      u.commit_time, w.slept_at);
                }
              }
            }
          }
          if (!conflict.empty()) break;
          // Live non-sleeping holders (pending or committing) at the wake
          // block both held grants and the re-admission of queued ops.
          for (const auto& [cell, c] : u.cells) {
            if (cell.object != object) continue;
            for (const Span& s : ActiveSpans(u, c, horizon)) {
              if (s.begin >= wake || s.end <= wake) continue;
              for (const auto& [om, oc] : ops) {
                if (incompatible(om, oc, cell.member, s.cls)) {
                  conflict = StrFormat(
                      "txn %llu actively holds %s on %s across the wake",
                      static_cast<unsigned long long>(uid),
                      OpClassName(s.cls), CellName(cell).c_str());
                }
              }
            }
          }
        }
      }

      if (w.woke && !conflict.empty()) {
        out->push_back(Violation{
            "algorithm9",
            StrFormat("txn %llu awoke at event %zu despite a conflict: %s",
                      static_cast<unsigned long long>(id), wake,
                      conflict.c_str())});
      }
      if (w.awake_abort && conflict.empty()) {
        out->push_back(Violation{
            "algorithm9",
            StrFormat("txn %llu was awake-aborted at event %zu with no "
                      "incompatible commit after its sleep (%.6f) and no "
                      "live incompatible holder",
                      static_cast<unsigned long long>(id), wake,
                      w.slept_at)});
      }
    }
  }
}

}  // namespace

bool ValuesEquivalent(const Value& a, const Value& b, double epsilon) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.ToDouble().value();
    const double y = b.ToDouble().value();
    if (x == y) return true;
    const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    return std::fabs(x - y) <= epsilon * scale;
  }
  return a == b;
}

std::string CheckReport::ToString() const {
  std::string s = StrFormat(
      "check: %s (%zu committed txns, %zu serial orders tried%s)\n",
      ok() ? "OK" : "VIOLATIONS", committed_txns, orders_tried,
      exact_search ? ", exact search" : "");
  for (const Violation& v : violations) s += "  " + v.ToString() + "\n";
  return s;
}

CheckReport CheckHistory(const History& history, const CheckOptions& options) {
  CheckReport report;
  if (!history.complete) {
    report.violations.push_back(Violation{
        "incomplete-history",
        StrFormat("the trace ring dropped events (%zu retained); raise the "
                  "recorder capacity — every other check would be unsound",
                  history.events.size())});
    return report;
  }
  for (const TraceEvent& e : history.events) {
    if ((e.kind == TraceEventKind::kApply ||
         e.kind == TraceEventKind::kWait) &&
        !e.has_op) {
      report.violations.push_back(Violation{
          "incomplete-history",
          "an apply/wait event lacks its structured operation payload "
          "(recorded outside TraceLog::RecordOp?)"});
      return report;
    }
  }

  const Digest digest = DigestEvents(history);
  CheckDefinition1(history, digest, &report.violations);
  CheckReconciliation(history, digest, options.epsilon, &report.violations);
  CheckSerialEquivalence(history, digest, options, &report);
  CheckAlgorithm9(history, digest, &report.violations);
  if (report.violations.size() > options.max_violations) {
    report.violations.resize(options.max_violations);
    report.violations.push_back(
        Violation{"truncated", "further violations suppressed"});
  }
  return report;
}

}  // namespace preserial::check
