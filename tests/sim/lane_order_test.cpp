// Fixed-delay lanes (Simulation::ScheduleAfterFixed) against a reference
// built here: every live event fires in (time, schedule order), whichever
// queue holds it. A seeded mix of ScheduleAt, variable ScheduleAfter and
// fixed-delay events at three delays makes same-microsecond ties between
// lanes and the heap common; the run cancels lane heads and mid-lane
// entries, slices the clock with RunUntil, peeks NextEventTime, forces the
// stale-entry purge while live events sit on lanes, drains the engine to
// its compaction point, and ends on the exhaustion latch.

#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace ks::sim {
namespace {

/// The fixed delays under test. The variable delays below span the same
/// range, so heap events land on lane events' microseconds.
constexpr std::int64_t kLaneDelays[] = {10, 25, 40};
constexpr int kLanes = 3;

class LaneHarness {
 public:
  explicit LaneHarness(std::uint64_t seed) : rng_(seed) {}

  Simulation& sim() { return sim_; }
  Rng& rng() { return rng_; }
  std::size_t live() const { return reference_.size(); }
  /// Id of the most recently scheduled event.
  EventId last_id() const { return last_id_; }
  std::uint64_t fired() const { return fired_; }

  /// Schedules one event of the given kind: 0 ScheduleAt, 1 ScheduleAfter,
  /// 2 + i the fixed lane kLaneDelays[i].
  void Schedule(int kind) {
    const std::uint64_t order = next_order_++;
    Time at = sim_.Now();
    EventId id = kInvalidEvent;
    if (kind == 0) {
      at += Micros(rng_.UniformInt(0, 45));
      id = sim_.ScheduleAt(at, [this, at, order] { OnFire(at, order); });
    } else if (kind == 1) {
      const Duration delay = Micros(rng_.UniformInt(0, 45));
      at += delay;
      id = sim_.ScheduleAfter(delay, [this, at, order] { OnFire(at, order); });
    } else {
      const int lane = kind - 2;
      at += Micros(kLaneDelays[lane]);
      id = sim_.ScheduleAfterFixed(Micros(kLaneDelays[lane]),
                                   [this, at, order] { OnFire(at, order); });
      lanes_[lane].push_back(order);
    }
    ASSERT_NE(id, kInvalidEvent);
    last_id_ = id;
    reference_.emplace(at, order);
    pending_[order] = {id, at};
  }

  void ScheduleRandom() {
    Schedule(static_cast<int>(rng_.UniformInt(0, 1 + kLanes)));
  }

  /// Cancels the oldest live event of a lane (its head), or a random one
  /// behind it. False when the pick had already fired or been cancelled.
  bool CancelOnLane(int lane, bool head) {
    std::deque<std::uint64_t>& q = lanes_[lane];
    while (!q.empty() && pending_.count(q.front()) == 0) q.pop_front();
    if (q.empty()) return false;
    std::size_t pick = 0;
    if (!head) {
      pick = static_cast<std::size_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(q.size()) - 1));
    }
    const std::uint64_t order = q[pick];
    if (pending_.count(order) == 0) return false;
    CancelOrder(order);
    return true;
  }

  /// Cancels a random live event, wherever it is queued.
  void CancelAny() {
    if (pending_.empty()) return;
    auto it = pending_.begin();
    std::advance(it, rng_.UniformInt(
                         0, static_cast<std::int64_t>(pending_.size()) - 1));
    CancelOrder(it->first);
  }

  void CancelOrder(std::uint64_t order) {
    const auto [id, at] = pending_.at(order);
    EXPECT_TRUE(sim_.Cancel(id)) << "order " << order;
    EXPECT_FALSE(sim_.Cancel(id)) << "order " << order;
    reference_.erase({at, order});
    pending_.erase(order);
  }

  /// Everything due by `t` fires, in reference order, and the clock lands
  /// on `t`.
  void RunUntil(Time t) {
    sim_.RunUntil(t);
    EXPECT_EQ(sim_.Now(), t);
    if (!reference_.empty()) {
      EXPECT_GT(reference_.begin()->first, t);
    }
  }

  void Peek() {
    const std::optional<Time> next = sim_.NextEventTime();
    if (reference_.empty()) {
      EXPECT_FALSE(next.has_value());
    } else {
      ASSERT_TRUE(next.has_value());
      EXPECT_EQ(*next, reference_.begin()->first);
    }
  }

  void CheckCounts() {
    EXPECT_EQ(sim_.pending(), reference_.size());
    EXPECT_EQ(sim_.lifetime_events(), next_order_);
  }

  /// Probability that a firing event schedules a child of a random kind.
  double child_chance = 0.0;

 private:
  void OnFire(Time at, std::uint64_t order) {
    ++fired_;
    ASSERT_FALSE(reference_.empty()) << "order " << order << " fired late";
    const std::pair<Time, std::uint64_t> expected = *reference_.begin();
    ASSERT_EQ(std::make_pair(at, order), expected)
        << "fired (" << at.count() << "us, #" << order << "), reference "
        << "wants (" << expected.first.count() << "us, #" << expected.second
        << ")";
    EXPECT_EQ(sim_.Now(), at);
    reference_.erase(reference_.begin());
    pending_.erase(order);
    if (child_chance > 0.0 && rng_.Chance(child_chance)) ScheduleRandom();
  }

  Simulation sim_;
  Rng rng_;
  EventId last_id_ = kInvalidEvent;
  std::uint64_t next_order_ = 0;
  std::uint64_t fired_ = 0;
  /// Live events in the order the engine must fire them.
  std::set<std::pair<Time, std::uint64_t>> reference_;
  /// Live events by schedule order: their id and fire time.
  std::map<std::uint64_t, std::pair<EventId, Time>> pending_;
  /// Schedule order of every event put on each lane.
  std::deque<std::uint64_t> lanes_[kLanes];
};

class LaneOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LaneOrder, FiresInTimeThenScheduleOrderAcrossLanesAndHeap) {
  LaneHarness h(GetParam());
  Rng& rng = h.rng();
  h.child_chance = 0.3;

  // Seeded mix of every operation.
  for (int op = 0; op < 20000; ++op) {
    const std::int64_t dice = rng.UniformInt(0, 99);
    if (dice < 45) {
      h.ScheduleRandom();
    } else if (dice < 53) {
      h.CancelOnLane(static_cast<int>(rng.UniformInt(0, kLanes - 1)), true);
    } else if (dice < 60) {
      h.CancelOnLane(static_cast<int>(rng.UniformInt(0, kLanes - 1)), false);
    } else if (dice < 64) {
      h.CancelAny();
    } else if (dice < 76) {
      h.RunUntil(h.sim().Now() + Micros(rng.UniformInt(0, 30)));
    } else if (dice < 88) {
      h.sim().Step();
    } else {
      h.Peek();
    }
    if (HasFatalFailure()) return;
    if (op % 97 == 0) h.CheckCounts();
  }
  h.CheckCounts();

  // Forced purge: a few live events on the heap and a long live tail on
  // the lanes, then cancels (nothing fires meanwhile) until dead entries
  // outnumber live ones by more than the purge slack of 64. The heap alone
  // holds fewer entries than there are live events, which a heap-only dead
  // count would get wrong.
  h.child_chance = 0.0;
  for (int i = 0; i < 600; ++i) h.Schedule(2 + i % kLanes);
  for (int i = 0; i < 5; ++i) h.Schedule(i % 2);
  std::size_t cancels = 0;
  for (int i = 0; cancels <= h.live() + 64; ++i) {
    if (h.CancelOnLane(i % kLanes, /*head=*/i % 4 == 0)) ++cancels;
  }
  h.CheckCounts();
  h.Peek();
  h.RunUntil(h.sim().Now() + Micros(12));
  h.CheckCounts();

  // A heap drained while thousands of live events wait on the lanes is
  // not a drained engine: the RunUntil below must not compact the slots
  // those lane entries point at.
  h.sim().Run();
  for (int i = 0; i < 5000; ++i) h.Schedule(2 + i % kLanes);
  h.RunUntil(h.sim().Now() + Micros(kLaneDelays[0] - 1));
  h.CheckCounts();
  h.Peek();
  h.RunUntil(h.sim().Now() + Micros(kLaneDelays[1]));
  h.CheckCounts();

  // Drain to the compaction point: more than the compaction threshold in
  // flight at once, then Run() until Step() finds the queues empty. Ids
  // from before the drain must not cancel anything after it.
  for (int i = 0; i < 5000; ++i) h.ScheduleRandom();
  const EventId stale = h.last_id();
  h.sim().Run();
  EXPECT_EQ(h.sim().pending(), 0u);
  EXPECT_EQ(h.live(), 0u);
  EXPECT_FALSE(h.sim().NextEventTime().has_value());
  h.child_chance = 0.3;
  for (int i = 0; i < 300; ++i) h.ScheduleRandom();
  EXPECT_FALSE(h.sim().Cancel(stale));
  h.CheckCounts();
  h.Peek();
  h.RunUntil(h.sim().Now() + Micros(20));
  h.CheckCounts();

  // Exhaustion latch: once the id space is spent every schedule call,
  // lanes included, returns kInvalidEvent, and queued events still fire in
  // order.
  h.child_chance = 0.0;
  h.sim().InjectLifetimeEventCountForTest((1ull << 40) - 1);
  EXPECT_EQ(h.sim().ScheduleAfterFixed(Micros(kLaneDelays[1]), [] {}),
            kInvalidEvent);
  EXPECT_EQ(h.sim().ScheduleAfterFixed(Micros(7), [] {}), kInvalidEvent);
  EXPECT_EQ(h.sim().ScheduleAt(h.sim().Now(), [] {}), kInvalidEvent);
  EXPECT_TRUE(h.sim().exhausted());
  const std::size_t left = h.live();
  const std::uint64_t fired_before = h.fired();
  h.sim().Run();
  EXPECT_EQ(h.fired() - fired_before, left);
  EXPECT_EQ(h.live(), 0u);
  EXPECT_EQ(h.sim().pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneOrder, ::testing::Values(1u, 7u, 4242u));

TEST(LaneOrderTest, LaneEntryLosesSameMicrosecondTieToOlderHeapEntry) {
  Simulation sim;
  std::vector<int> order;
  // Heap event at t=10 scheduled first; a 10 us lane event scheduled at
  // t=0 lands on the same microsecond and must fire second.
  sim.ScheduleAt(Micros(10), [&] { order.push_back(0); });
  sim.ScheduleAfterFixed(Micros(10), [&] { order.push_back(1); });
  sim.ScheduleAfter(Micros(10), [&] { order.push_back(2); });
  sim.ScheduleAfterFixed(Micros(10), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(LaneOrderTest, NegativeDelayFiresNowAndManyDelaysStayOrdered) {
  Simulation sim;
  std::vector<std::int64_t> fired;
  sim.ScheduleAt(Micros(5), [&] {
    // More distinct delays than the engine keeps lanes for; the extra ones
    // go on the heap and the order is unchanged.
    for (std::int64_t d = 20; d > 0; --d) {
      sim.ScheduleAfterFixed(Micros(d), [&, d] { fired.push_back(d); });
    }
    sim.ScheduleAfterFixed(Micros(-3), [&] { fired.push_back(0); });
  });
  sim.Run();
  std::vector<std::int64_t> want{0};
  for (std::int64_t d = 1; d <= 20; ++d) want.push_back(d);
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sim.Now(), Micros(25));
}

}  // namespace
}  // namespace ks::sim
