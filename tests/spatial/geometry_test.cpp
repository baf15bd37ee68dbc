#include "spatial/geometry.hpp"

#include <gtest/gtest.h>

namespace ks::spatial {
namespace {

TEST(SliceMap, FirstFitAllocatesLowestOffset) {
  SliceMap map(7);
  EXPECT_EQ(map.FreeGroups(), 7);
  ASSERT_TRUE(map.Occupy(0, 2).ok());
  ASSERT_TRUE(map.Occupy(2, 3).ok());
  EXPECT_EQ(map.DebugString(), "#####..");
  // First fit lands right after the occupied prefix.
  EXPECT_EQ(map.FirstFit(2).value_or(-1), 5);
  EXPECT_FALSE(map.FirstFit(3).has_value());
}

TEST(SliceMap, OccupyRejectsOverlapAndOutOfRange) {
  SliceMap map(4);
  ASSERT_TRUE(map.Occupy(1, 2).ok());
  EXPECT_FALSE(map.Occupy(0, 2).ok());  // overlaps group 1
  EXPECT_FALSE(map.Occupy(3, 2).ok());  // runs past the device
  EXPECT_FALSE(map.Occupy(-1, 1).ok());
  EXPECT_FALSE(map.Occupy(0, 0).ok());
  // A failed Occupy must not leave partial marks behind.
  EXPECT_EQ(map.DebugString(), ".##.");
}

TEST(SliceMap, ReleaseRequiresFullyOccupiedRun) {
  SliceMap map(4);
  ASSERT_TRUE(map.Occupy(0, 2).ok());
  EXPECT_FALSE(map.Release(1, 2).ok());  // group 2 is free
  EXPECT_EQ(map.DebugString(), "##..");  // rejected release changes nothing
  EXPECT_TRUE(map.Release(0, 2).ok());
  EXPECT_EQ(map.FreeGroups(), 4);
}

TEST(SliceMap, FragmentationScoreMeasuresUnusableFreeSpace) {
  SliceMap map(7);
  EXPECT_DOUBLE_EQ(map.FragmentationScore(), 0.0);  // fully free
  // "#.#.#.#": 3 free groups, largest run 1 -> 1 - 1/3.
  for (const int offset : {0, 2, 4, 6}) ASSERT_TRUE(map.Occupy(offset, 1).ok());
  EXPECT_DOUBLE_EQ(map.FragmentationScore(), 1.0 - 1.0 / 3.0);
  // Fully used scores 0 (nothing free to fragment).
  for (const int offset : {1, 3, 5}) ASSERT_TRUE(map.Occupy(offset, 1).ok());
  EXPECT_DOUBLE_EQ(map.FragmentationScore(), 0.0);
}

TEST(SliceMap, EqualityComparesGeometryAndMask) {
  SliceMap a(7);
  SliceMap b(7);
  EXPECT_EQ(a, b);
  ASSERT_TRUE(a.Occupy(3, 2).ok());
  EXPECT_NE(a, b);
  ASSERT_TRUE(b.Occupy(3, 2).ok());
  EXPECT_EQ(a, b);
  EXPECT_NE(SliceMap(4), SliceMap(5));
}

TEST(PoolFragmentation, AggregatesAcrossDevices) {
  SliceMap a(7);
  SliceMap b(7);
  // Device a: "#.#.#.#" (3 free, largest 1); device b fully free (7 free,
  // largest 7). Pool: 1 - (1 + 7) / (3 + 7).
  for (const int offset : {0, 2, 4, 6}) ASSERT_TRUE(a.Occupy(offset, 1).ok());
  EXPECT_DOUBLE_EQ(PoolFragmentationRatio({&a, &b}), 1.0 - 8.0 / 10.0);
  EXPECT_DOUBLE_EQ(PoolFragmentationRatio({}), 0.0);
  EXPECT_DOUBLE_EQ(PoolFragmentationRatio({nullptr}), 0.0);
}

}  // namespace
}  // namespace ks::spatial
