#include "gtm/gtm_service.h"

#include <chrono>

namespace preserial::gtm {

GtmService::GtmService(storage::Database* db, GtmOptions options)
    : gtm_(db, &clock_, options) {}

void GtmService::DrainEventsLocked() {
  bool any = false;
  for (const GtmEvent& e : gtm_.TakeEvents()) {
    granted_.insert(e.txn);
    any = true;
  }
  if (any) cv_.notify_all();
}

TxnId GtmService::Begin(int priority) {
  std::lock_guard<std::mutex> lk(mu_);
  return gtm_.Begin(priority);
}

Status GtmService::Invoke(TxnId txn, const ObjectId& object,
                          semantics::MemberId member,
                          const semantics::Operation& op, Duration timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  Status s = gtm_.Invoke(txn, object, member, op);
  DrainEventsLocked();
  if (s.code() == StatusCode::kDeadlock) {
    (void)gtm_.RequestAbort(txn);
    DrainEventsLocked();
    return s;
  }
  if (s.code() != StatusCode::kWaiting) return s;
  return WaitForGrantLocked(lk, txn, timeout);
}

Status GtmService::WaitForGrantLocked(std::unique_lock<std::mutex>& lk,
                                      TxnId txn, Duration timeout) {
  // kNoTimeout would overflow a steady_clock deadline; wait untimed then.
  const bool bounded = !IsNoTimeout(timeout);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(bounded ? timeout : 0.0);
  while (granted_.count(txn) == 0) {
    // The admission pump may have aborted the waiter (stale entries) or a
    // timeout sweep may have killed it; stop waiting then.
    Result<TxnState> st = gtm_.StateOf(txn);
    if (st.ok() && !IsLive(st.value())) {
      return Status::Aborted("transaction aborted while waiting");
    }
    if (!bounded) {
      cv_.wait(lk);
      continue;
    }
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
      (void)gtm_.RequestAbort(txn);
      DrainEventsLocked();
      return Status::TimedOut("invocation wait timed out; aborted");
    }
  }
  granted_.erase(txn);
  // The buffered operation was applied at admission time.
  return Status::Ok();
}

Status GtmService::WaitForGrant(TxnId txn, Duration timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  return WaitForGrantLocked(lk, txn, timeout);
}

Result<storage::Value> GtmService::Read(TxnId txn, const ObjectId& object,
                                        semantics::MemberId member,
                                        Duration timeout) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    Result<storage::Value> r = gtm_.ReadLocal(txn, object, member);
    DrainEventsLocked();
    if (r.ok() || r.status().code() != StatusCode::kWaiting) return r;
  }
  // Queued: block via the Invoke machinery, then re-read the copy.
  PRESERIAL_RETURN_IF_ERROR(WaitForGrant(txn, timeout));
  std::lock_guard<std::mutex> lk(mu_);
  return gtm_.ReadLocal(txn, object, member);
}

Status GtmService::Commit(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  Status s = gtm_.RequestCommit(txn);
  DrainEventsLocked();
  return s;
}

Status GtmService::Abort(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  Status s = gtm_.RequestAbort(txn);
  DrainEventsLocked();
  return s;
}

Status GtmService::Sleep(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  Status s = gtm_.Sleep(txn);
  DrainEventsLocked();
  return s;
}

Status GtmService::Awake(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  Status s = gtm_.Awake(txn);
  DrainEventsLocked();
  return s;
}

Result<TxnState> GtmService::StateOf(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  return gtm_.StateOf(txn);
}

std::vector<TxnId> GtmService::SleepIdleTransactions(Duration idle_timeout) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TxnId> parked = gtm_.SleepIdleTransactions(idle_timeout);
  DrainEventsLocked();  // Parking holders can admit waiters.
  return parked;
}

std::vector<TxnId> GtmService::AbortExpiredWaits(Duration max_wait) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TxnId> victims = gtm_.AbortExpiredWaits(max_wait);
  DrainEventsLocked();
  cv_.notify_all();  // Victims parked in Invoke must observe their abort.
  return victims;
}

std::vector<TxnId> GtmService::DetectAndResolveDeadlocks() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TxnId> victims = gtm_.DetectAndResolveDeadlocks();
  DrainEventsLocked();
  cv_.notify_all();
  return victims;
}

}  // namespace preserial::gtm
