#include "sim/simulator.h"

#include <vector>

#include <gtest/gtest.h>

namespace preserial::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtOrigin) {
  Simulator s(3.0);
  EXPECT_DOUBLE_EQ(s.Now(), 3.0);
  EXPECT_TRUE(s.Idle());
}

TEST(SimulatorTest, AfterAdvancesClockToEventTime) {
  Simulator s;
  double fired_at = -1;
  s.After(2.0, [&] { fired_at = s.Now(); });
  EXPECT_EQ(s.Run(), 1u);
  EXPECT_DOUBLE_EQ(fired_at, 2.0);
  EXPECT_DOUBLE_EQ(s.Now(), 2.0);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s;
  std::vector<double> times;
  s.After(1.0, [&] {
    times.push_back(s.Now());
    s.After(1.5, [&] { times.push_back(s.Now()); });
  });
  s.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
}

TEST(SimulatorTest, AtSchedulesAbsolute) {
  Simulator s(10.0);
  double fired_at = -1;
  s.At(12.0, [&] { fired_at = s.Now(); });
  s.Run();
  EXPECT_DOUBLE_EQ(fired_at, 12.0);
}

TEST(SimulatorTest, StepRunsExactlyOneEvent) {
  Simulator s;
  int count = 0;
  s.After(1, [&] { ++count; });
  s.After(2, [&] { ++count; });
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.Step());
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndSetsClock) {
  Simulator s;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    s.At(t, [&fired, &s] { fired.push_back(s.Now()); });
  }
  EXPECT_EQ(s.RunUntil(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.Now(), 2.5);
  s.Run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorTest, RunRespectsMaxEvents) {
  Simulator s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.After(i + 1, [&] { ++count; });
  EXPECT_EQ(s.Run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(SimulatorTest, ZeroDelayRunsAfterCurrentEventFifo) {
  Simulator s;
  std::vector<int> order;
  s.After(1.0, [&] {
    order.push_back(1);
    s.After(0.0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TieBreakerPicksAmongSameTimeEvents) {
  Simulator s;
  std::vector<int> order;
  std::vector<size_t> tie_counts;
  for (int i = 0; i < 3; ++i) s.At(1.0, [&order, i] { order.push_back(i); });
  s.At(2.0, [&order] { order.push_back(3); });
  // Always fire the newest of the tied events.
  s.SetTieBreaker([&tie_counts](size_t n) {
    tie_counts.push_back(n);
    return n - 1;
  });
  EXPECT_EQ(s.Run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0, 3}));
  // Consulted only while at least two events share the next timestamp.
  EXPECT_EQ(tie_counts, (std::vector<size_t>{3, 2}));
  EXPECT_DOUBLE_EQ(s.Now(), 2.0);
}

}  // namespace
}  // namespace preserial::sim
