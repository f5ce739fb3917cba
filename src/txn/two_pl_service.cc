#include "txn/two_pl_service.h"

#include <chrono>

namespace preserial::txn {

using storage::Value;

TwoPlService::TwoPlService(storage::Database* db,
                           TwoPhaseLockingOptions options)
    : engine_(db, &clock_, options) {}

TxnId TwoPlService::Begin() {
  std::lock_guard<std::mutex> lk(mu_);
  return engine_.Begin();
}

TwoPhaseLockingEngine::Counters TwoPlService::counters() {
  std::lock_guard<std::mutex> lk(mu_);
  return engine_.counters();
}

void TwoPlService::DrainRunnableLocked() {
  bool any = false;
  for (TxnId t : engine_.TakeRunnable()) {
    runnable_.insert(t);
    any = true;
  }
  if (any) cv_.notify_all();
}

template <typename T, typename Fn>
Result<T> TwoPlService::RunBlocking(TxnId txn, Duration timeout, Fn&& op) {
  std::unique_lock<std::mutex> lk(mu_);
  // kNoTimeout would overflow a steady_clock deadline; wait untimed then.
  const bool bounded = !IsNoTimeout(timeout);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(bounded ? timeout : 0.0);
  while (true) {
    Result<T> result = op();
    DrainRunnableLocked();
    if (result.ok() ||
        result.status().code() != StatusCode::kWaiting) {
      if (result.status().code() == StatusCode::kDeadlock) {
        (void)engine_.Abort(txn);
        DrainRunnableLocked();
      }
      return result;
    }
    // Parked: wait until our lock request is granted.
    while (runnable_.count(txn) == 0) {
      if (!bounded) {
        cv_.wait(lk);
        DrainRunnableLocked();
        continue;
      }
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
        (void)engine_.Abort(txn);
        DrainRunnableLocked();
        return Status::TimedOut("lock wait timed out; transaction aborted");
      }
      DrainRunnableLocked();
    }
    runnable_.erase(txn);
    // Loop: retry the blocked operation, which now holds the lock.
  }
}

Result<Value> TwoPlService::Read(TxnId txn, const std::string& table,
                                 const Value& key, size_t column,
                                 Duration timeout) {
  return RunBlocking<Value>(txn, timeout, [&] {
    return engine_.Read(txn, table, key, column);
  });
}

Result<Value> TwoPlService::ReadForUpdate(TxnId txn, const std::string& table,
                                          const Value& key, size_t column,
                                          Duration timeout) {
  return RunBlocking<Value>(txn, timeout, [&] {
    return engine_.ReadForUpdate(txn, table, key, column);
  });
}

namespace {
// Adapts a Status-returning engine call to the Result<T> blocking loop.
struct Empty {};
}  // namespace

Status TwoPlService::Write(TxnId txn, const std::string& table,
                           const Value& key, size_t column, Value v,
                           Duration timeout) {
  Result<Empty> r = RunBlocking<Empty>(txn, timeout, [&]() -> Result<Empty> {
    Status s = engine_.Write(txn, table, key, column, v);
    if (!s.ok()) return s;
    return Empty{};
  });
  return r.ok() ? Status::Ok() : r.status();
}

Status TwoPlService::Commit(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  Status s = engine_.Commit(txn);
  DrainRunnableLocked();
  return s;
}

Status TwoPlService::Abort(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  Status s = engine_.Abort(txn);
  DrainRunnableLocked();
  return s;
}

}  // namespace preserial::txn
