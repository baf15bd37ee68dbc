#include "gpu/utilization.hpp"

#include <gtest/gtest.h>

namespace ks::gpu {
namespace {

TEST(UtilizationTracker, EmptyIsIdle) {
  UtilizationTracker u;
  EXPECT_EQ(u.TotalBusy(), Duration{0});
  EXPECT_FALSE(u.active());
}

TEST(UtilizationTracker, FullBucket) {
  UtilizationTracker u;
  u.Start(kTimeZero);
  u.Stop(Seconds(1));
  EXPECT_EQ(u.TotalBusy(), Seconds(1));
  EXPECT_FALSE(u.active());
}

TEST(UtilizationTracker, PartialBucket) {
  UtilizationTracker u;
  u.Start(Millis(250));
  u.Stop(Millis(750));
  EXPECT_EQ(u.TotalBusy(), Millis(500));
}

TEST(UtilizationTracker, IntervalSpanningBuckets) {
  UtilizationTracker u;
  u.Start(Millis(500));
  u.Stop(Millis(2500));
  EXPECT_EQ(u.TotalBusy(), Seconds(2));
}

TEST(UtilizationTracker, FlushAccountsOpenInterval) {
  UtilizationTracker u;
  u.Start(kTimeZero);
  u.Flush(Millis(600));
  EXPECT_EQ(u.TotalBusy(), Millis(600));
  EXPECT_TRUE(u.active());
  u.Stop(Seconds(1));
  EXPECT_EQ(u.TotalBusy(), Seconds(1));
}

TEST(UtilizationTracker, StartWhileActiveIsNoop) {
  UtilizationTracker u;
  u.Start(kTimeZero);
  u.Start(Millis(500));
  u.Stop(Seconds(1));
  EXPECT_EQ(u.TotalBusy(), Seconds(1));
}

}  // namespace
}  // namespace ks::gpu
