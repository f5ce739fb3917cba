#ifndef PRESERIAL_SIM_EVENT_QUEUE_H_
#define PRESERIAL_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"

namespace preserial::sim {

// Pending-event set of a discrete-event simulation. A hand-rolled binary
// min-heap ordered by (time, sequence) — the sequence number makes ties
// FIFO-stable, which matters for reproducing the paper's arrival-order
// semantics (transactions are labelled by arrival order lambda).
class EventQueue {
 public:
  struct Entry {
    TimePoint time = 0;
    uint64_t id = 0;  // Push order; breaks ties FIFO.
    std::function<void()> action;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `action` at absolute time `time`.
  void Push(TimePoint time, std::function<void()> action);

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Time of the earliest event; undefined when Empty().
  TimePoint PeekTime() const;

  // Removes and returns the earliest event; undefined when Empty().
  Entry Pop() { return PopTiedAt(0); }

  // Number of events sharing the earliest timestamp; 0 when Empty().
  // O(n) — meant for schedule-exploration harnesses, not hot loops.
  size_t TiedHeadCount() const;

  // Removes and returns the k-th (in FIFO order, k < TiedHeadCount()) of
  // the events tied at the earliest timestamp. PopTiedAt(0) == Pop().
  Entry PopTiedAt(size_t k);

 private:
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  std::vector<Entry> heap_;
  uint64_t next_id_ = 0;
};

}  // namespace preserial::sim

#endif  // PRESERIAL_SIM_EVENT_QUEUE_H_
