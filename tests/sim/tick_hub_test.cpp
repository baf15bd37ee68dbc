#include "sim/tick_hub.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulation.hpp"

namespace ks::sim {
namespace {

TEST(TickHubTest, FiresAtExactPeriodMultiples) {
  Simulation sim;
  TickHub hub(&sim);
  std::vector<std::int64_t> at;
  hub.Subscribe(Millis(10), [&] { at.push_back(sim.Now().count()); });
  sim.RunUntil(Millis(35));
  EXPECT_EQ(at, (std::vector<std::int64_t>{10000, 20000, 30000}));
}

TEST(TickHubTest, EqualPeriodSubscribersShareOneEngineEvent) {
  Simulation sim;
  TickHub hub(&sim, Micros(500));
  int a = 0;
  int b = 0;
  int c = 0;
  hub.Subscribe(Seconds(1.0), [&] { ++a; });
  hub.Subscribe(Seconds(1.0), [&] { ++b; });
  hub.Subscribe(Seconds(1.0), [&] { ++c; });
  sim.RunUntil(Seconds(10.0));
  EXPECT_EQ(a, 10);
  EXPECT_EQ(b, 10);
  EXPECT_EQ(c, 10);
  EXPECT_EQ(hub.fires(), 30u);
  // Three subscribers, ten sampling instants, ten engine events.
  EXPECT_EQ(hub.ticks(), 10u);
}

TEST(TickHubTest, ExactHubFiresOffGridPeriodsAtTheirMicrosecond) {
  Simulation sim;
  TickHub hub(&sim);
  std::vector<std::pair<std::int64_t, int>> fired;
  const TickHub::SubId slow = hub.Subscribe(
      Micros(456), [&] { fired.push_back({sim.Now().count(), 1}); });
  const TickHub::SubId fast = hub.Subscribe(
      Micros(123), [&] { fired.push_back({sim.Now().count(), 0}); });
  sim.RunUntil(Micros(500));
  EXPECT_EQ(fired, (std::vector<std::pair<std::int64_t, int>>{
                       {123, 0}, {246, 0}, {369, 0}, {456, 1}, {492, 0}}));
  // Distinct instants never share an engine event on the exact grid.
  EXPECT_EQ(hub.ticks(), 5u);
  EXPECT_TRUE(hub.Unsubscribe(slow));
  EXPECT_TRUE(hub.Unsubscribe(fast));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TickHubTest, OffGridDeadlinesWithinOneGridStepShareOneEngineEvent) {
  Simulation sim;
  TickHub hub(&sim, Millis(1));
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    hub.Subscribe(Micros(5001 + 100 * i), [&] {
      ++fired;
      EXPECT_EQ(sim.Now(), Micros(6000));
    });
  }
  // Ten subscriptions, one armed engine event.
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(Micros(6000));
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(hub.fires(), 10u);
  EXPECT_EQ(hub.ticks(), 1u);
}

TEST(TickHubTest, FiresAndTicksCountStaggeredSubscribersOnOneGrid) {
  Simulation sim;
  TickHub hub(&sim, Millis(5));
  // Four 5 ms instruments subscribed 100 us apart: every deadline of each
  // lands in the same 5 ms grid step as its siblings'.
  for (int d = 1; d <= 4; ++d) {
    sim.RunUntil(Micros(100 * d));
    hub.Subscribe(Millis(5), [] {});
  }
  sim.RunUntil(Millis(105));
  // 4 instruments x 20 deadlines, fired on the 10 .. 105 ms grid points.
  EXPECT_EQ(hub.fires(), 80u);
  EXPECT_EQ(hub.ticks(), 20u);
}

TEST(TickHubTest, EarlyUnsubscribePreventsFireAndStaleIdIsNoop) {
  Simulation sim;
  TickHub hub(&sim, Micros(1));
  int fired = 0;
  const TickHub::SubId a = hub.Subscribe(Millis(1), [&] { ++fired; });
  const TickHub::SubId b = hub.Subscribe(Millis(2), [&] { ++fired; });
  EXPECT_TRUE(hub.Unsubscribe(a));
  EXPECT_FALSE(hub.Unsubscribe(a));  // already unsubscribed
  EXPECT_EQ(hub.subscribers(), 1u);
  sim.RunUntil(Millis(3));
  EXPECT_EQ(fired, 1);  // b at 2 ms; a never
  EXPECT_TRUE(hub.Unsubscribe(b));
  EXPECT_FALSE(hub.Unsubscribe(b));
  EXPECT_FALSE(hub.Unsubscribe(0));  // never issued
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TickHubTest, UnsubscribeStopsFiring) {
  Simulation sim;
  TickHub hub(&sim);
  int n = 0;
  const TickHub::SubId id = hub.Subscribe(Millis(1), [&] { ++n; });
  sim.RunUntil(Millis(3));
  EXPECT_TRUE(hub.Unsubscribe(id));
  EXPECT_FALSE(hub.Unsubscribe(id));
  sim.RunUntil(Millis(10));
  EXPECT_EQ(n, 3);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TickHubTest, SubscriberMayUnsubscribeItselfMidFire) {
  Simulation sim;
  TickHub hub(&sim);
  int n = 0;
  TickHub::SubId id = 0;
  id = hub.Subscribe(Millis(1), [&] {
    if (++n == 2) hub.Unsubscribe(id);
  });
  sim.RunUntil(Millis(10));
  EXPECT_EQ(n, 2);
  EXPECT_EQ(hub.subscribers(), 0u);
}

TEST(TickHubTest, MixedPeriodsKeepTheirOwnGrids) {
  Simulation sim;
  TickHub hub(&sim, Micros(500));
  std::vector<std::int64_t> fast;
  std::vector<std::int64_t> slow;
  hub.Subscribe(Millis(3), [&] { fast.push_back(sim.Now().count()); });
  hub.Subscribe(Millis(5), [&] { slow.push_back(sim.Now().count()); });
  sim.RunUntil(Millis(15));
  EXPECT_EQ(fast, (std::vector<std::int64_t>{3000, 6000, 9000, 12000, 15000}));
  EXPECT_EQ(slow, (std::vector<std::int64_t>{5000, 10000, 15000}));
}

TEST(TickHubTest, OffGridDeadlinesRoundUpToTheGrid) {
  Simulation sim;
  TickHub hub(&sim, Millis(1));
  std::vector<std::int64_t> at;
  sim.RunUntil(Micros(250));  // subscribe off the grid
  hub.Subscribe(Millis(2), [&] { at.push_back(sim.Now().count()); });
  sim.RunUntil(Millis(7));
  // Due at 2.25, 4.25, 6.25 ms; each fires at the next 1 ms grid point.
  EXPECT_EQ(at, (std::vector<std::int64_t>{3000, 5000, 7000}));
}

TEST(TickHubTest, SameInstantOrderIsDueTimeThenArmingOrder) {
  Simulation sim;
  TickHub hub(&sim, Millis(1));
  std::vector<int> order;
  sim.RunUntil(Micros(100));
  hub.Subscribe(Micros(900), [&] { order.push_back(0); });  // due 1000
  sim.RunUntil(Micros(200));
  hub.Subscribe(Micros(600), [&] { order.push_back(1); });  // due 800
  hub.Subscribe(Micros(600), [&] { order.push_back(2); });  // due 800, later
  sim.RunUntil(Millis(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(hub.ticks(), 1u);
}

TEST(TickHubTest, UnsubscribingTheLastSubscriberDisarmsTheHub) {
  Simulation sim;
  TickHub hub(&sim, Micros(500));
  const TickHub::SubId id = hub.Subscribe(Millis(5), [] {});
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(hub.Unsubscribe(id));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TickHubTest, SubscriberMayUnsubscribeASiblingInTheSameBatch) {
  Simulation sim;
  TickHub hub(&sim, Millis(1));
  int victim_fires = 0;
  TickHub::SubId victim = 0;
  hub.Subscribe(Micros(400), [&] { hub.Unsubscribe(victim); });
  victim = hub.Subscribe(Micros(600), [&] { ++victim_fires; });
  sim.RunUntil(Millis(5));
  EXPECT_EQ(victim_fires, 0);
  EXPECT_EQ(hub.subscribers(), 1u);
}

TEST(TickHubTest, ExactHubMatchesPrivateSelfReschedulingEvents) {
  // At microsecond granularity the hub must fire every subscription at the
  // same instants as one private self-rescheduling event per instrument.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    std::vector<std::pair<Time, Duration>> subs;  // (subscribe at, period)
    for (int i = 0; i < 12; ++i) {
      subs.push_back({Micros(rng.UniformInt(0, 50)) * 100,
                      Micros(rng.UniformInt(1, 40)) * 100});
    }
    std::sort(subs.begin(), subs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    std::vector<std::pair<std::int64_t, int>> hub_fires;
    std::vector<std::pair<std::int64_t, int>> raw_fires;
    {
      Simulation sim;
      TickHub hub(&sim);
      for (int i = 0; i < static_cast<int>(subs.size()); ++i) {
        sim.RunUntil(subs[static_cast<std::size_t>(i)].first);
        hub.Subscribe(subs[static_cast<std::size_t>(i)].second,
                      [&hub_fires, &sim, i] {
                        hub_fires.push_back({sim.Now().count(), i});
                      });
      }
      sim.RunUntil(Millis(30));
    }
    {
      Simulation sim;
      std::vector<std::function<void()>> arm(subs.size());
      for (int i = 0; i < static_cast<int>(subs.size()); ++i) {
        const Duration period = subs[static_cast<std::size_t>(i)].second;
        arm[static_cast<std::size_t>(i)] = [&, i, period] {
          sim.ScheduleAfter(period, [&, i] {
            raw_fires.push_back({sim.Now().count(), i});
            arm[static_cast<std::size_t>(i)]();
          });
        };
      }
      for (int i = 0; i < static_cast<int>(subs.size()); ++i) {
        sim.RunUntil(subs[static_cast<std::size_t>(i)].first);
        arm[static_cast<std::size_t>(i)]();
      }
      sim.RunUntil(Millis(30));
    }
    std::sort(hub_fires.begin(), hub_fires.end());
    std::sort(raw_fires.begin(), raw_fires.end());
    EXPECT_EQ(hub_fires, raw_fires) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ks::sim
