#include "sim/simulator.h"

#include "common/logging.h"

namespace preserial::sim {

void Simulator::After(Duration delay, std::function<void()> action) {
  PRESERIAL_CHECK(delay >= 0) << "negative delay " << delay;
  queue_.Push(clock_.Now() + delay, std::move(action));
}

void Simulator::At(TimePoint when, std::function<void()> action) {
  PRESERIAL_CHECK(when >= clock_.Now())
      << "scheduling into the past: " << when << " < " << clock_.Now();
  queue_.Push(when, std::move(action));
}

bool Simulator::Step() {
  if (queue_.Empty()) return false;
  size_t pick = 0;
  size_t ties;
  if (tie_breaker_ && (ties = queue_.TiedHeadCount()) > 1) {
    pick = tie_breaker_(ties);
    PRESERIAL_CHECK(pick < ties)
        << "tie breaker returned " << pick << " of " << ties;
  }
  EventQueue::Entry e = queue_.PopTiedAt(pick);
  clock_.Set(e.time);
  ++events_executed_;
  e.action();
  return true;
}

uint64_t Simulator::Run(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

uint64_t Simulator::RunUntil(TimePoint until) {
  uint64_t n = 0;
  while (!queue_.Empty() && queue_.PeekTime() <= until) {
    Step();
    ++n;
  }
  if (clock_.Now() < until) clock_.Set(until);
  return n;
}

}  // namespace preserial::sim
