#include "gpu/device.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

namespace ks::gpu {
namespace {

class GpuDeviceTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  GpuDevice dev_{&sim_, GpuUuid("GPU-0000")};
  ContainerId c1_{"c1"};
  ContainerId c2_{"c2"};
};

TEST_F(GpuDeviceTest, AllocateWithinCapacity) {
  auto p = dev_.Allocate(c1_, 1024);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(dev_.used_memory(), 1024u);
  EXPECT_EQ(dev_.MemoryUsedBy(c1_), 1024u);
  EXPECT_EQ(dev_.MemoryUsedBy(c2_), 0u);
}

TEST_F(GpuDeviceTest, AllocateBeyondCapacityFails) {
  const auto cap = dev_.spec().memory_bytes;
  auto p1 = dev_.Allocate(c1_, cap);
  ASSERT_TRUE(p1.ok());
  auto p2 = dev_.Allocate(c2_, 1);
  EXPECT_FALSE(p2.ok());
  EXPECT_EQ(p2.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GpuDeviceTest, ZeroByteAllocationRejected) {
  EXPECT_FALSE(dev_.Allocate(c1_, 0).ok());
}

TEST_F(GpuDeviceTest, FreeReturnsMemory) {
  auto p = dev_.Allocate(c1_, 4096);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(dev_.Free(*p).ok());
  EXPECT_EQ(dev_.used_memory(), 0u);
  EXPECT_FALSE(dev_.Free(*p).ok());  // double free
}

TEST_F(GpuDeviceTest, FreeAllReleasesOnlyOwner) {
  ASSERT_TRUE(dev_.Allocate(c1_, 100).ok());
  ASSERT_TRUE(dev_.Allocate(c1_, 200).ok());
  ASSERT_TRUE(dev_.Allocate(c2_, 300).ok());
  dev_.FreeAll(c1_);
  EXPECT_EQ(dev_.used_memory(), 300u);
  EXPECT_EQ(dev_.MemoryUsedBy(c2_), 300u);
}

TEST_F(GpuDeviceTest, SingleKernelRunsAtNominalDuration) {
  bool done = false;
  dev_.Submit(c1_, {Millis(50), 0.0, "k"}, [&] { done = true; });
  EXPECT_TRUE(dev_.busy());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(dev_.busy());
  // 1 us completion tolerance in the engine.
  EXPECT_NEAR(ToMillis(Duration(sim_.Now())), 50.0, 0.01);
}

TEST_F(GpuDeviceTest, TwoConcurrentKernelsShareProcessor) {
  Time t1{0}, t2{0};
  dev_.Submit(c1_, {Millis(50), 0.0, "a"}, [&] { t1 = sim_.Now(); });
  dev_.Submit(c2_, {Millis(50), 0.0, "b"}, [&] { t2 = sim_.Now(); });
  sim_.Run();
  // Both share the SMs: each takes ~100ms wall time.
  EXPECT_NEAR(ToMillis(Duration(t1)), 100.0, 0.1);
  EXPECT_NEAR(ToMillis(Duration(t2)), 100.0, 0.1);
}

TEST_F(GpuDeviceTest, LateArrivalFinishesAfterProportionalShare) {
  Time t1{0}, t2{0};
  dev_.Submit(c1_, {Millis(100), 0.0, "a"}, [&] { t1 = sim_.Now(); });
  sim_.ScheduleAt(Millis(50), [&] {
    dev_.Submit(c2_, {Millis(100), 0.0, "b"}, [&] { t2 = sim_.Now(); });
  });
  sim_.Run();
  // a: 50ms solo (50ms work) + 100ms shared (50ms work) -> ends at 150ms.
  EXPECT_NEAR(ToMillis(Duration(t1)), 150.0, 0.2);
  // b: 100ms shared (50ms work) + 50ms solo (50ms work) -> ends at 200ms.
  EXPECT_NEAR(ToMillis(Duration(t2)), 200.0, 0.2);
}

TEST_F(GpuDeviceTest, BandwidthOversubscriptionStretchesKernels) {
  Time t1{0}, t2{0};
  // Two kernels each demanding 0.75 of bandwidth: stretch = 1.5 on top of
  // the 2-way SM split -> each 50ms kernel takes 150ms.
  dev_.Submit(c1_, {Millis(50), 0.75, "a"}, [&] { t1 = sim_.Now(); });
  dev_.Submit(c2_, {Millis(50), 0.75, "b"}, [&] { t2 = sim_.Now(); });
  sim_.Run();
  EXPECT_NEAR(ToMillis(Duration(t1)), 150.0, 0.2);
  EXPECT_NEAR(ToMillis(Duration(t2)), 150.0, 0.2);
}

TEST_F(GpuDeviceTest, BandwidthUnderCapacityDoesNotStretch) {
  Time t1{0};
  dev_.Submit(c1_, {Millis(50), 0.5, "a"}, [&] { t1 = sim_.Now(); });
  sim_.Run();
  EXPECT_NEAR(ToMillis(Duration(t1)), 50.0, 0.01);
}

TEST_F(GpuDeviceTest, UtilizationTracksBusyTime) {
  dev_.Submit(c1_, {Millis(250), 0.0, "a"}, nullptr);
  sim_.Run();
  dev_.utilization().Flush(sim_.Now());
  EXPECT_NEAR(ToMillis(dev_.utilization().TotalBusy()), 250.0, 0.01);
}

TEST_F(GpuDeviceTest, CompletionCallbackCanResubmit) {
  int completed = 0;
  std::function<void()> resubmit = [&] {
    ++completed;
    if (completed < 3) {
      dev_.Submit(c1_, {Millis(10), 0.0, "chain"}, resubmit);
    }
  };
  dev_.Submit(c1_, {Millis(10), 0.0, "chain"}, resubmit);
  sim_.Run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(dev_.completed_kernels(), 3u);
  EXPECT_NEAR(ToMillis(Duration(sim_.Now())), 30.0, 0.1);
}

TEST_F(GpuDeviceTest, DetachOwnerDropsCallbacksKernelStillRuns) {
  bool fired = false;
  dev_.Submit(c1_, {Millis(50), 0.0, "k"}, [&] { fired = true; });
  sim_.RunUntil(Millis(10));
  dev_.DetachOwner(c1_);  // container torn down mid-kernel
  sim_.Run();
  EXPECT_FALSE(fired);                       // callback dropped...
  EXPECT_EQ(dev_.completed_kernels(), 1u);   // ...but the kernel completed
  EXPECT_FALSE(dev_.busy());
}

TEST_F(GpuDeviceTest, DetachOwnerLeavesOtherOwnersIntact) {
  bool fired1 = false, fired2 = false;
  dev_.Submit(c1_, {Millis(20), 0.0, "a"}, [&] { fired1 = true; });
  dev_.Submit(c2_, {Millis(20), 0.0, "b"}, [&] { fired2 = true; });
  dev_.DetachOwner(c1_);
  sim_.Run();
  EXPECT_FALSE(fired1);
  EXPECT_TRUE(fired2);
}

TEST_F(GpuDeviceTest, FreeAllWhileKernelsRunning) {
  ASSERT_TRUE(dev_.Allocate(c1_, 1024).ok());
  dev_.Submit(c1_, {Millis(20), 0.0, "k"}, nullptr);
  dev_.FreeAll(c1_);  // memory released mid-execution
  EXPECT_EQ(dev_.used_memory(), 0u);
  sim_.Run();
  EXPECT_EQ(dev_.completed_kernels(), 1u);
}

TEST_F(GpuDeviceTest, ManyKernelsAllComplete) {
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    dev_.Submit(c1_, {Millis(1 + i % 7), 0.1, "k"}, [&] { ++done; });
  }
  sim_.Run();
  EXPECT_EQ(done, 64);
  EXPECT_FALSE(dev_.busy());
}

TEST_F(GpuDeviceTest, SliceMemoryWallIsItsShareOfDeviceMemory) {
  const std::uint64_t device = dev_.spec().memory_bytes;
  dev_.SetSliceAssignment(c1_, 1, 4);
  EXPECT_TRUE(dev_.Allocate(c1_, device / 4).ok());
  EXPECT_EQ(dev_.Allocate(c1_, 1).status().code(),
            StatusCode::kResourceExhausted);
  dev_.SetSliceAssignment(c2_, 2, 4);
  EXPECT_TRUE(dev_.Allocate(c2_, device / 2).ok());
  EXPECT_EQ(dev_.Allocate(c2_, 1).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(GpuDeviceTest, SliceStretchesKernelsThatNeedMoreSms) {
  // Wall time is nominal * max(1, sm_demand / slice fraction).
  dev_.SetSliceAssignment(c1_, 1, 4);
  Time full{0}, small{0};
  dev_.Submit(c1_, {Millis(10), 0.0, "full", 1.0}, [&] { full = sim_.Now(); });
  dev_.Submit(c1_, {Millis(10), 0.0, "small", 0.2},
              [&] { small = sim_.Now(); });
  sim_.Run();
  EXPECT_EQ(full, Millis(40));
  EXPECT_EQ(small, Millis(10));
}

TEST_F(GpuDeviceTest, SliceGroupsClampToTheDevice) {
  // As MIG profile lookup does: 0 of 7 groups is a 1-of-7 slice, and 99
  // of 7 is the whole device.
  dev_.SetSliceAssignment(c1_, 0, 7);
  dev_.SetSliceAssignment(c2_, 99, 7);
  Time narrow{0}, whole{0};
  dev_.Submit(c1_, {Millis(10), 0.0, "narrow"}, [&] { narrow = sim_.Now(); });
  dev_.Submit(c2_, {Millis(10), 0.0, "whole"}, [&] { whole = sim_.Now(); });
  sim_.Run();
  EXPECT_EQ(narrow, Millis(70));
  EXPECT_EQ(whole, Millis(10));
  EXPECT_TRUE(dev_.Allocate(c2_, dev_.spec().memory_bytes).ok());
}

// Soak: drive the per-kernel path against the 2^40 lifetime-event-id cap.
// A long steady kernel stream consumes one id per kernel; when the id
// space runs out the engine must latch (CapacityStatus turns
// kResourceExhausted, schedules return kInvalidEvent) and the device must
// stall — never abort or corrupt its state.
TEST(DeviceSoak, EventIdExhaustionLatchesInsteadOfAborting) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-soak"));
  const ContainerId c1("c1");

  // Self-resubmitting stream: each 1 ms kernel's completion launches the
  // next.
  std::uint64_t units = 0;
  std::function<void()> launch = [&] {
    dev.Submit(c1, {Millis(1), 0.0, "step"}, [&] {
      ++units;
      launch();
    });
  };
  launch();
  sim.RunUntil(Seconds(60));  // long horizon: 60000 kernels
  EXPECT_GE(units, 59900u);
  EXPECT_TRUE(sim.CapacityStatus().ok());

  // Pretend the preceding months of soak consumed nearly the whole id
  // space: a handful of ids remain, then the engine latches.
  sim.InjectLifetimeEventCountForTest((1ull << 40) - 4);
  sim.Run();

  EXPECT_TRUE(sim.exhausted());
  EXPECT_FALSE(sim.CapacityStatus().ok());
  // The device is stalled, not corrupted: the kernel submitted when the
  // engine refused its completion event stays resident, and introspection
  // still works.
  EXPECT_NO_FATAL_FAILURE({
    (void)dev.completed_kernels();
    (void)dev.active_kernels();
  });
  EXPECT_TRUE(dev.busy());
  // A post-latch submit is accepted into device state but can never arm an
  // event — the documented stall — and must not crash.
  dev.Submit(c1, {Millis(1), 0.0, "step"}, [] {});
  sim.Run();
  EXPECT_TRUE(dev.busy());
}

}  // namespace
}  // namespace ks::gpu
