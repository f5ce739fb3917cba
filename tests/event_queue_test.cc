#include "sim/event_queue.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace preserial::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(3.0, [&] { fired.push_back(3); });
  q.Push(1.0, [&] { fired.push_back(1); });
  q.Push(2.0, [&] { fired.push_back(2); });
  while (!q.Empty()) {
    EventQueue::Entry e = q.Pop();
    e.action();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesAreFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Push(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.Empty()) q.Pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, PeekTimeMatchesPop) {
  EventQueue q;
  q.Push(5.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
  EXPECT_DOUBLE_EQ(q.Pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.PeekTime(), 5.0);
}

TEST(EventQueueTest, RandomizedOrderingAgainstReference) {
  preserial::Rng rng(77);
  EventQueue q;
  std::vector<double> times;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.NextDouble() * 100;
    times.push_back(t);
    q.Push(t, [] {});
  }
  std::sort(times.begin(), times.end());
  for (double expected : times) {
    ASSERT_FALSE(q.Empty());
    EXPECT_DOUBLE_EQ(q.Pop().time, expected);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, PopTiedAtTakesKthFifoTie) {
  preserial::Rng rng(99);
  EventQueue q;
  // Reference: (time, push index) of every pending event. Times come from
  // a few values so that most pops choose among several ties.
  std::vector<std::pair<double, int>> pending;
  int pushed = 0;
  int fired = -1;
  auto push = [&] {
    const double t = static_cast<double>(rng.NextBounded(4));
    const int index = pushed++;
    q.Push(t, [&fired, index] { fired = index; });
    pending.emplace_back(t, index);
  };
  for (int i = 0; i < 200; ++i) push();
  while (!pending.empty()) {
    std::sort(pending.begin(), pending.end());
    const double head = pending.front().first;
    size_t ties = 0;
    while (ties < pending.size() && pending[ties].first == head) ++ties;
    ASSERT_EQ(q.TiedHeadCount(), ties);
    ASSERT_EQ(q.Size(), pending.size());
    const size_t k = rng.NextBounded(ties);
    EventQueue::Entry e = q.PopTiedAt(k);
    EXPECT_DOUBLE_EQ(e.time, head);
    e.action();
    EXPECT_EQ(fired, pending[k].second);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
    if (pushed < 400 && rng.NextBool(0.5)) push();
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.TiedHeadCount(), 0u);
}

}  // namespace
}  // namespace preserial::sim
