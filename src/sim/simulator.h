#ifndef PRESERIAL_SIM_SIMULATOR_H_
#define PRESERIAL_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>

#include "common/clock.h"
#include "sim/event_queue.h"

namespace preserial::sim {

// Sequential discrete-event simulator. Drives a virtual clock forward from
// event to event; everything the GTM experiments need (client arrivals,
// disconnections, reconnections, lock-wait timeouts) is expressed as
// scheduled callbacks.
//
// The simulator is single-threaded by design: the paper's middleware is an
// event-based controller, and a deterministic executor makes every figure
// bit-for-bit reproducible.
class Simulator {
 public:
  explicit Simulator(TimePoint start = 0.0) : clock_(start) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // The virtual clock, shareable with components that take a Clock*.
  ManualClock* clock() { return &clock_; }
  TimePoint Now() const { return clock_.Now(); }

  // Schedules `action` `delay` seconds from now (delay >= 0; a zero delay
  // runs after currently pending events at the same timestamp, FIFO).
  void After(Duration delay, std::function<void()> action);

  // Schedules `action` at absolute virtual time `when` (>= Now()).
  void At(TimePoint when, std::function<void()> action);

  // Installs a tie-break hook consulted when several events share the next
  // timestamp: called with the tie count n (>= 2), must return an index in
  // [0, n) selecting which fires first (FIFO order indexing). Unset (the
  // default) keeps strict FIFO. Lets schedule-exploration harnesses
  // perturb same-time interleavings without changing the workload.
  void SetTieBreaker(std::function<size_t(size_t)> tie_breaker) {
    tie_breaker_ = std::move(tie_breaker);
  }

  // Runs a single event; returns false if none remain.
  bool Step();

  // Runs until the queue drains or `max_events` fire. Returns events run.
  uint64_t Run(uint64_t max_events = UINT64_MAX);

  // Runs all events with time <= `until`, then sets the clock to `until`.
  uint64_t RunUntil(TimePoint until);

  bool Idle() const { return queue_.Empty(); }
  uint64_t events_executed() const { return events_executed_; }

 private:
  ManualClock clock_;
  EventQueue queue_;
  std::function<size_t(size_t)> tie_breaker_;
  uint64_t events_executed_ = 0;
};

}  // namespace preserial::sim

#endif  // PRESERIAL_SIM_SIMULATOR_H_
