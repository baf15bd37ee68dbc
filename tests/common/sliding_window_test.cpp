#include "common/sliding_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace ks {
namespace {

TEST(SlidingWindowUsage, StartsAtZero) {
  SlidingWindowUsage w(Seconds(10));
  EXPECT_DOUBLE_EQ(w.Usage(kTimeZero), 0.0);
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(5)), 0.0);
  EXPECT_FALSE(w.active());
}

TEST(SlidingWindowUsage, FullyBusyReportsOne) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  EXPECT_TRUE(w.active());
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(10)), 1.0);
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(100)), 1.0);
}

TEST(SlidingWindowUsage, HalfBusyWithinWindow) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  w.Stop(Seconds(5));
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(10)), 0.5);
}

TEST(SlidingWindowUsage, OldIntervalsSlideOut) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  w.Stop(Seconds(5));
  // At t=15 only [5,15] is in the window; the busy part [0,5] overlaps none
  // of [5,15].
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(15)), 0.0);
  // At t=12 the window is [2,12]; busy overlap is [2,5] = 3s.
  EXPECT_NEAR(w.Usage(Seconds(12)), 0.3, 1e-9);
}

TEST(SlidingWindowUsage, EarlyRampUsesElapsedDenominator) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(Seconds(1));
  // One second after first activity, the container has been busy the whole
  // observed time — the usage must read 1.0, not 0.1.
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(2)), 1.0);
  w.Stop(Seconds(2));
  EXPECT_NEAR(w.Usage(Seconds(3)), 0.5, 1e-9);
}

TEST(SlidingWindowUsage, OpenIntervalCountsUpToNow) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  w.Stop(Seconds(2));
  w.Start(Seconds(4));
  EXPECT_NEAR(w.Usage(Seconds(8)), (2.0 + 4.0) / 8.0, 1e-9);
}

TEST(SlidingWindowUsage, StartStopIdempotent) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  w.Start(Seconds(1));  // no-op
  w.Stop(Seconds(2));
  w.Stop(Seconds(3));  // no-op
  EXPECT_NEAR(w.Usage(Seconds(10)), 0.2, 1e-9);
}

TEST(SlidingWindowUsage, BusyTimeMatchesUsage) {
  SlidingWindowUsage w(Seconds(5));
  w.Start(Seconds(1));
  w.Stop(Seconds(2));
  w.Start(Seconds(3));
  w.Stop(Seconds(4));
  EXPECT_EQ(w.BusyTime(Seconds(5)), Seconds(2));
}

TEST(SlidingWindowUsage, CompactDropsOldIntervalsOnly) {
  SlidingWindowUsage w(Seconds(2));
  for (int i = 0; i < 100; ++i) {
    w.Start(Seconds(i));
    w.Stop(Seconds(i) + Millis(500));
  }
  w.Compact(Seconds(100));
  // Window [98,100]: intervals [98,98.5] and [99,99.5] remain -> 1s busy.
  EXPECT_NEAR(w.Usage(Seconds(100)), 0.5, 1e-9);
}

TEST(SlidingWindowUsage, ZeroElapsedActive) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  EXPECT_DOUBLE_EQ(w.Usage(kTimeZero), 1.0);
}

/// The straightforward O(intervals) tracker: keeps every interval forever
/// and rescans them all per query. The running-sum tracker must agree with
/// it exactly.
class ScanWindow {
 public:
  explicit ScanWindow(Duration window) : window_(window) {}
  void Start(Time now) {
    if (!origin_) origin_ = now;
    if (!active_) active_since_ = now;
    active_ = true;
  }
  void Stop(Time now) {
    if (active_ && now > active_since_) {
      intervals_.push_back({active_since_, now});
    }
    active_ = false;
  }
  Duration BusyTime(Time now) const {
    const Time cutoff =
        now.count() > window_.count() ? now - window_ : kTimeZero;
    Duration busy{0};
    for (const auto& [start, end] : intervals_) {
      const Time s = std::max(start, cutoff);
      const Time e = std::min(end, now);
      if (e > s) busy += e - s;
    }
    if (active_ && now > std::max(active_since_, cutoff)) {
      busy += now - std::max(active_since_, cutoff);
    }
    return busy;
  }
  double Usage(Time now) const {
    Duration denom = window_;
    if (origin_ && now - *origin_ < window_) denom = now - *origin_;
    if (denom.count() <= 0) return active_ ? 1.0 : 0.0;
    return std::min(1.0, static_cast<double>(BusyTime(now).count()) /
                             static_cast<double>(denom.count()));
  }

 private:
  Duration window_;
  std::vector<std::pair<Time, Time>> intervals_;
  bool active_ = false;
  Time active_since_{0};
  std::optional<Time> origin_;
};

TEST(SlidingWindowUsage, RunningSumMatchesFullRescan) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const Duration window = Micros(rng.UniformInt(1, 50'000));
    SlidingWindowUsage fast(window);
    ScanWindow scan(window);
    Time now = Micros(rng.UniformInt(0, 1000));
    for (int op = 0; op < 2000; ++op) {
      now = now + Micros(rng.UniformInt(0, 3000));
      if (rng.Chance(0.5)) {
        fast.Start(now);
        scan.Start(now);
      } else {
        fast.Stop(now);
        scan.Stop(now);
      }
      // A few queries at or after the last mutation, in any order among
      // themselves — the simulation's contract.
      for (int q = static_cast<int>(rng.UniformInt(0, 3)); q > 0; --q) {
        const Time at = now + Micros(rng.UniformInt(0, 2 * window.count()));
        ASSERT_EQ(fast.BusyTime(at), scan.BusyTime(at))
            << "seed " << seed << " op " << op << " t=" << at.count();
        ASSERT_EQ(fast.Usage(at), scan.Usage(at))
            << "seed " << seed << " op " << op << " t=" << at.count();
      }
    }
  }
}

}  // namespace
}  // namespace ks
