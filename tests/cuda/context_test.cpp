#include "cuda/context.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace ks::cuda {
namespace {

class CudaContextTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  gpu::GpuDevice dev_{&sim_, GpuUuid("GPU-X")};
  CudaContext ctx_{&dev_, ContainerId("job-1")};
};

TEST_F(CudaContextTest, MemAllocAndFree) {
  gpu::DevicePtr p = 0;
  EXPECT_EQ(ctx_.MemAlloc(&p, 1 << 20), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.AllocatedBytes(), 1u << 20);
  EXPECT_EQ(ctx_.MemFree(p), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.AllocatedBytes(), 0u);
}

TEST_F(CudaContextTest, MemAllocRejectsBadArgs) {
  gpu::DevicePtr p = 0;
  EXPECT_EQ(ctx_.MemAlloc(nullptr, 1), CudaResult::kErrorInvalidValue);
  EXPECT_EQ(ctx_.MemAlloc(&p, 0), CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, MemAllocOutOfMemory) {
  gpu::DevicePtr p = 0;
  EXPECT_EQ(ctx_.MemAlloc(&p, dev_.spec().memory_bytes + 1),
            CudaResult::kErrorOutOfMemory);
}

TEST_F(CudaContextTest, FreeForeignPointerFails) {
  EXPECT_EQ(ctx_.MemFree(12345), CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, ArrayCreateAllocatesProduct) {
  gpu::DevicePtr p = 0;
  EXPECT_EQ(ctx_.ArrayCreate(&p, 100, 100, 4), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.AllocatedBytes(), 40000u);
  EXPECT_EQ(ctx_.ArrayCreate(&p, 0, 100, 4), CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, DefaultStreamKernelsRunFifo) {
  std::vector<int> order;
  ASSERT_EQ(
      ctx_.LaunchKernel({Millis(10), 0.0, "a"}, [&] { order.push_back(1); }),
      CudaResult::kSuccess);
  ASSERT_EQ(
      ctx_.LaunchKernel({Millis(10), 0.0, "b"}, [&] { order.push_back(2); }),
      CudaResult::kSuccess);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // FIFO: serialized, so ~20ms total, not 20ms of 2-way sharing.
  EXPECT_NEAR(ToMillis(Duration(sim_.Now())), 20.0, 0.1);
}

TEST_F(CudaContextTest, TwoContextsOverlapOnOneDevice) {
  CudaContext other(&dev_, ContainerId("job-2"));
  Time t1{0}, t2{0};
  ctx_.LaunchKernel({Millis(10), 0.0, "a"}, [&] { t1 = sim_.Now(); });
  other.LaunchKernel({Millis(10), 0.0, "b"}, [&] { t2 = sim_.Now(); });
  sim_.Run();
  // Overlapping processor-sharing: both finish at ~20ms.
  EXPECT_NEAR(ToMillis(Duration(t1)), 20.0, 0.1);
  EXPECT_NEAR(ToMillis(Duration(t2)), 20.0, 0.1);
}

TEST_F(CudaContextTest, LaunchZeroDurationFails) {
  EXPECT_EQ(ctx_.LaunchKernel({Duration{0}, 0.0, "x"}, nullptr),
            CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, PendingKernelsCountsQueuedWork) {
  ctx_.LaunchKernel({Millis(10), 0.0, "a"}, nullptr);
  ctx_.LaunchKernel({Millis(10), 0.0, "b"}, nullptr);
  EXPECT_EQ(ctx_.PendingKernels(), 2u);
  sim_.Run();
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

TEST_F(CudaContextTest, DestructorFreesDeviceMemory) {
  {
    CudaContext tmp(&dev_, ContainerId("ephemeral"));
    gpu::DevicePtr p = 0;
    ASSERT_EQ(tmp.MemAlloc(&p, 1 << 20), CudaResult::kSuccess);
    EXPECT_GE(dev_.used_memory(), 1u << 20);
  }
  EXPECT_EQ(dev_.used_memory(), 0u);
}

TEST_F(CudaContextTest, CompletionCallbackCanLaunchAgain) {
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 3) {
      ctx_.LaunchKernel({Millis(5), 0.0, "chain"}, next);
    }
  };
  ctx_.LaunchKernel({Millis(5), 0.0, "chain"}, next);
  sim_.Run();
  EXPECT_EQ(chain, 3);
}

// ---- What reaches the device at once ---------------------------------------

TEST_F(CudaContextTest, IdleLaunchReachesTheDeviceAtOnce) {
  bool done = false;
  ASSERT_EQ(ctx_.LaunchKernel({Millis(10), 0.0, "a"}, [&] { done = true; }),
            CudaResult::kSuccess);
  EXPECT_EQ(dev_.active_kernels(), 1u);
  EXPECT_EQ(ctx_.PendingKernels(), 1u);
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim_.Now(), Millis(10));
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

TEST_F(CudaContextTest, LaunchBehindAnInFlightUnitWaits) {
  std::vector<Time> starts;
  dev_.SetKernelTraceFn(
      [&](const gpu::KernelTraceEvent& e) { starts.push_back(e.start); });
  ctx_.LaunchKernel({Millis(10), 0.0, "a"}, nullptr);
  ctx_.LaunchKernel({Millis(10), 0.0, "b"}, nullptr);
  EXPECT_EQ(dev_.active_kernels(), 1u);  // b is queued, not on the device
  EXPECT_EQ(ctx_.PendingKernels(), 2u);
  sim_.Run();
  EXPECT_EQ(starts, (std::vector<Time>{Millis(0), Millis(10)}));
}

TEST_F(CudaContextTest, CountedStreamRunsItsFirstUnitAtOnceAndQueuesTheRest) {
  int units = 0;
  ASSERT_EQ(ctx_.LaunchKernelStream({Millis(10), 0.0, "s"}, 3,
                                    [&] { ++units; }),
            CudaResult::kSuccess);
  EXPECT_EQ(dev_.active_kernels(), 1u);
  EXPECT_EQ(ctx_.PendingKernels(), 3u);
  EXPECT_EQ(ctx_.CancelPending(), 2u);  // only the two queued units
  sim_.Run();
  EXPECT_EQ(units, 1);
  EXPECT_EQ(dev_.completed_kernels(), 1u);
}

TEST_F(CudaContextTest, FencedFirstUnitDropsTheLaunchAndTheNextLaunchRuns) {
  const ContainerId owner("job-1");
  dev_.EnforceTokenGate(owner);  // closed: no epoch admitted yet
  int units = 0;
  ASSERT_EQ(ctx_.LaunchKernelStream({Millis(10), 0.0, "s"}, 3,
                                    [&] { ++units; }),
            CudaResult::kSuccess);
  EXPECT_EQ(dev_.fenced_kernel_rejections(), 1u);
  EXPECT_EQ(dev_.active_kernels(), 0u);
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
  dev_.AdmitTokenEpoch(owner, 1);
  bool next_done = false;
  ctx_.LaunchKernel({Millis(10), 0.0, "k"}, [&] { next_done = true; });
  EXPECT_EQ(dev_.active_kernels(), 1u);
  sim_.Run();
  EXPECT_EQ(units, 0);
  EXPECT_TRUE(next_done);
  EXPECT_EQ(sim_.Now(), Millis(10));
  EXPECT_EQ(dev_.fenced_kernel_rejections(), 1u);
}

// ---- Counted kernel streams (LaunchKernelStream) ---------------------------

TEST_F(CudaContextTest, StreamUnitsRetireInOrderAtTheirFinish) {
  std::vector<Time> retired;  // device-side finish of each unit
  dev_.SetKernelTraceFn(
      [&](const gpu::KernelTraceEvent& e) { retired.push_back(e.finish); });
  std::vector<Time> fired;  // when each unit callback ran
  ASSERT_EQ(ctx_.LaunchKernelStream({Millis(10), 0.0, "s"}, 5,
                                    [&] { fired.push_back(sim_.Now()); }),
            CudaResult::kSuccess);
  EXPECT_EQ(ctx_.PendingKernels(), 5u);
  EXPECT_EQ(dev_.active_kernels(), 1u);  // one unit on the device at a time
  sim_.Run();
  ASSERT_EQ(fired.size(), 5u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], Millis(10 * static_cast<std::int64_t>(i + 1)));
  }
  EXPECT_EQ(fired, retired);
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
  EXPECT_EQ(dev_.completed_kernels(), 5u);
}

TEST_F(CudaContextTest, StreamRejectsBadArgs) {
  EXPECT_EQ(ctx_.LaunchKernelStream({Millis(1), 0.0, "s"}, 0, nullptr),
            CudaResult::kErrorInvalidValue);
  EXPECT_EQ(ctx_.LaunchKernelStream({Duration{0}, 0.0, "s"}, 2, nullptr),
            CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, CancelPendingMidStreamLetsInFlightUnitRetire) {
  std::vector<Time> finishes;
  ctx_.LaunchKernelStream({Millis(10), 0.0, "s"}, 10,
                          [&] { finishes.push_back(sim_.Now()); });
  bool queued_fired = false;
  ctx_.LaunchKernel({Millis(10), 0.0, "k"}, [&] { queued_fired = true; });
  std::size_t cancelled = 0;
  sim_.ScheduleAt(Millis(35), [&] { cancelled = ctx_.CancelPending(); });
  sim_.Run();
  // Unit 4 was in flight and retires at its finish; units 5..10 and the
  // queued kernel behind them never start.
  EXPECT_EQ(cancelled, 7u);
  ASSERT_EQ(finishes.size(), 4u);
  EXPECT_EQ(finishes.back(), Millis(40));
  EXPECT_FALSE(queued_fired);
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
  EXPECT_EQ(dev_.completed_kernels(), 4u);
}

TEST_F(CudaContextTest, FencedSubmitDropsEntryWhileStreamKeepsDraining) {
  const ContainerId owner("job-1");
  dev_.EnforceTokenGate(owner);
  dev_.AdmitTokenEpoch(owner, 1);
  // The first rejection re-admits the owner, as if its token came back.
  int rejections = 0;
  dev_.SetViolationFn([&](const ContainerId& who, gpu::DeviceViolation) {
    ++rejections;
    dev_.AdmitTokenEpoch(who, 2);
  });
  bool first_done = false;
  ctx_.LaunchKernel({Millis(10), 0.0, "a"}, [&] { first_done = true; });
  int fenced_units = 0;
  ctx_.LaunchKernelStream({Millis(10), 0.0, "s"}, 3, [&] { ++fenced_units; });
  Time last_done{0};
  ctx_.LaunchKernel({Millis(10), 0.0, "c"}, [&] { last_done = sim_.Now(); });
  sim_.ScheduleAt(Millis(5), [&] { dev_.FenceTokenEpoch(owner); });
  sim_.Run();
  EXPECT_TRUE(first_done);  // in flight when the fence landed
  // The whole stream entry went with one rejected submit, no callbacks...
  EXPECT_EQ(fenced_units, 0);
  EXPECT_EQ(rejections, 1);
  EXPECT_EQ(dev_.fenced_kernel_rejections(), 1u);
  // ...and the kernel behind it still ran, straight after.
  EXPECT_EQ(last_done, Millis(20));
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

TEST(CudaContextTeardown, DestroyMidStreamRetiresOnlyTheInFlightUnit) {
  sim::Simulation sim;
  gpu::GpuDevice dev(&sim, GpuUuid("GPU-X"));
  int units = 0;
  auto ctx = std::make_unique<CudaContext>(&dev, ContainerId("job-1"));
  gpu::DevicePtr p = 0;
  ASSERT_EQ(ctx->MemAlloc(&p, 1 << 20), CudaResult::kSuccess);
  ctx->LaunchKernelStream({Millis(10), 0.0, "s"}, 10, [&] { ++units; });
  sim.RunUntil(Millis(25));  // units 1 and 2 retired, unit 3 in flight
  ctx.reset();               // container teardown
  sim.Run();
  // The in-flight unit still runs to its finish and is counted, but its
  // callback is dropped; the rest of the stream never reaches the device.
  EXPECT_EQ(units, 2);
  EXPECT_EQ(dev.completed_kernels(), 3u);
  EXPECT_EQ(sim.Now(), Millis(30));
  EXPECT_FALSE(dev.busy());
  EXPECT_EQ(dev.used_memory(), 0u);
  EXPECT_EQ(dev.utilization().TotalBusy(), Millis(30));
}

}  // namespace
}  // namespace ks::cuda
