#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace preserial::sim {

namespace {
// Heap order: earlier time first; FIFO (smaller id) among equal times.
bool Before(const EventQueue::Entry& a, const EventQueue::Entry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.id < b.id;
}
}  // namespace

void EventQueue::Push(TimePoint time, std::function<void()> action) {
  heap_.push_back(Entry{time, next_id_++, std::move(action)});
  SiftUp(heap_.size() - 1);
}

TimePoint EventQueue::PeekTime() const {
  assert(!heap_.empty());
  return heap_.front().time;
}

size_t EventQueue::TiedHeadCount() const {
  if (Empty()) return 0;
  const TimePoint t = PeekTime();
  return static_cast<size_t>(
      std::count_if(heap_.begin(), heap_.end(),
                    [t](const Entry& e) { return e.time == t; }));
}

EventQueue::Entry EventQueue::PopTiedAt(size_t k) {
  assert(!heap_.empty());
  size_t i = 0;
  if (k > 0) {
    // FIFO among ties is ascending id; find the slot of the k-th smallest.
    const TimePoint t = PeekTime();
    std::vector<size_t> tied;
    for (size_t j = 0; j < heap_.size(); ++j) {
      if (heap_[j].time == t) tied.push_back(j);
    }
    assert(k < tied.size());
    std::nth_element(tied.begin(), tied.begin() + k, tied.end(),
                     [this](size_t a, size_t b) {
                       return heap_[a].id < heap_[b].id;
                     });
    i = tied[k];
  }
  Entry out = std::move(heap_[i]);
  heap_[i] = std::move(heap_.back());
  heap_.pop_back();
  if (i < heap_.size()) {
    SiftDown(i);
    SiftUp(i);
  }
  return out;
}

void EventQueue::SiftUp(size_t i) {
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t smallest = i;
    const size_t left = 2 * i + 1;
    const size_t right = 2 * i + 2;
    if (left < n && Before(heap_[left], heap_[smallest])) smallest = left;
    if (right < n && Before(heap_[right], heap_[smallest])) smallest = right;
    if (smallest == i) break;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

}  // namespace preserial::sim
