#include "vgpu/frontend_hook.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cuda/context.hpp"
#include "gpu/device.hpp"

namespace ks::vgpu {
namespace {

/// Builds the full per-container stack the paper deploys inside a
/// container: workload -> FrontendHook (LD_PRELOAD seam) -> CudaContext
/// (driver) -> GpuDevice.
struct ContainerStack {
  ContainerStack(sim::Simulation* /*sim*/, gpu::GpuDevice* dev,
                 TokenBackend* backend, const std::string& name,
                 ResourceSpec spec)
      : ctx(dev, ContainerId(name)),
        hook(&ctx, backend, ContainerId(name), dev->uuid(), spec,
             dev->spec().memory_bytes) {}

  cuda::CudaContext ctx;
  FrontendHook hook;
};

class FrontendHookTest : public ::testing::Test {
 protected:
  FrontendHookTest() {
    cfg_.quota = Millis(100);
    cfg_.exchange_latency = Micros(1500);
    cfg_.usage_window = Seconds(10);
    backend_ = std::make_unique<TokenBackend>(&sim_, cfg_);
  }

  sim::Simulation sim_;
  BackendConfig cfg_;
  gpu::GpuDevice dev_{&sim_, GpuUuid("GPU-0")};
  std::unique_ptr<TokenBackend> backend_;
};

TEST_F(FrontendHookTest, MemAllocWithinQuotaPasses) {
  ResourceSpec spec;
  spec.gpu_mem = 0.5;
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  gpu::DevicePtr p = 0;
  EXPECT_EQ(c.hook.MemAlloc(&p, dev_.spec().memory_bytes / 2),
            cuda::CudaResult::kSuccess);
  EXPECT_EQ(c.hook.AllocatedBytes(), dev_.spec().memory_bytes / 2);
}

TEST_F(FrontendHookTest, MemAllocBeyondQuotaRejectedBeforeDriver) {
  ResourceSpec spec;
  spec.gpu_mem = 0.25;
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  gpu::DevicePtr p = 0;
  EXPECT_EQ(c.hook.MemAlloc(&p, dev_.spec().memory_bytes / 2),
            cuda::CudaResult::kErrorOutOfMemory);
  // The device itself never saw the allocation — rejection happens in the
  // interposed library, as in the paper.
  EXPECT_EQ(dev_.used_memory(), 0u);
  EXPECT_EQ(c.hook.oom_rejections(), 1u);
}

TEST_F(FrontendHookTest, QuotaFreesReusableAfterMemFree) {
  ResourceSpec spec;
  spec.gpu_mem = 0.25;
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  const std::uint64_t quarter = dev_.spec().memory_bytes / 4;
  gpu::DevicePtr p = 0;
  ASSERT_EQ(c.hook.MemAlloc(&p, quarter), cuda::CudaResult::kSuccess);
  EXPECT_EQ(c.hook.MemAlloc(&p, 1), cuda::CudaResult::kErrorOutOfMemory);
  ASSERT_EQ(c.hook.MemFree(p), cuda::CudaResult::kSuccess);
  EXPECT_EQ(c.hook.MemAlloc(&p, quarter), cuda::CudaResult::kSuccess);
}

TEST_F(FrontendHookTest, ArrayCreateGoesThroughQuota) {
  ResourceSpec spec;
  spec.gpu_mem = 1.0 / 1024.0;
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  gpu::DevicePtr p = 0;
  // 16MB quota; a 4K x 4K float array = 64MB must be rejected.
  EXPECT_EQ(c.hook.ArrayCreate(&p, 4096, 4096, 4),
            cuda::CudaResult::kErrorOutOfMemory);
  EXPECT_EQ(c.hook.ArrayCreate(&p, 1024, 1024, 4),
            cuda::CudaResult::kSuccess);
}

TEST_F(FrontendHookTest, KernelWaitsForToken) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  bool done = false;
  ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"}, [&] { done = true; }),
            cuda::CudaResult::kSuccess);
  // Nothing reaches the device until the token exchange completes.
  EXPECT_FALSE(dev_.busy());
  sim_.RunUntil(Millis(1));
  EXPECT_FALSE(done);
  sim_.RunUntil(Millis(15));
  EXPECT_TRUE(done);
}

TEST_F(FrontendHookTest, TokenReleasedEarlyWhenQueueDrains) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"}, nullptr),
            cuda::CudaResult::kSuccess);
  sim_.RunUntil(Millis(20));
  // Kernel finished well inside the 100ms quota; the holder must have
  // revoked its own token ("revoked by its holder").
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
  EXPECT_FALSE(c.hook.holds_valid_token());
}

TEST_F(FrontendHookTest, ExpiryStopsSubmissionUntilRegrant) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  // 30 kernels x 10ms = 300ms of work vs 100ms quota: needs >= 3 grants.
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"}, [&] { ++done; }),
              cuda::CudaResult::kSuccess);
  }
  sim_.Run();
  EXPECT_EQ(done, 30);
  EXPECT_GE(backend_->grants(), 3u);
}

TEST_F(FrontendHookTest, TwoContainersAlternateViaToken) {
  ContainerStack a(&sim_, &dev_, backend_.get(), "a", ResourceSpec{});
  ContainerStack b(&sim_, &dev_, backend_.get(), "b", ResourceSpec{});
  int done_a = 0, done_b = 0;
  for (int i = 0; i < 20; ++i) {
    a.hook.LaunchKernel({Millis(20), 0.0, "ka"}, [&] { ++done_a; });
    b.hook.LaunchKernel({Millis(20), 0.0, "kb"}, [&] { ++done_b; });
  }
  sim_.Run();
  EXPECT_EQ(done_a, 20);
  EXPECT_EQ(done_b, 20);
  // Token isolation means the device never ran kernels of both containers
  // concurrently, so overall runtime ~= serial sum (800ms) + exchanges.
  EXPECT_GE(Duration(sim_.Now()), Millis(800));
}

TEST_F(FrontendHookTest, NonPreemptiveKernelOverrunsQuota) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  // A single 250ms kernel: the quota (100ms) expires mid-kernel; the kernel
  // must still complete (CUDA kernels are non-preemptive).
  bool done = false;
  c.hook.LaunchKernel({Millis(250), 0.0, "long"}, [&] { done = true; });
  sim_.RunUntil(Millis(200));
  EXPECT_FALSE(done);
  EXPECT_EQ(backend_->HolderOf(dev_.uuid()), ContainerId("c1"));  // overrun
  sim_.RunUntil(Millis(300));
  EXPECT_TRUE(done);
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
}

TEST_F(FrontendHookTest, GpuLimitHalfStretchesKernelsToTwiceTheirTime) {
  ResourceSpec spec;
  spec.gpu_request = 0.2;
  spec.gpu_limit = 0.5;  // throttled to half speed
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  Time last{0};
  for (int i = 0; i < 100; ++i) {
    c.hook.LaunchKernel({Millis(10), 0.0, "k"}, [&] { last = sim_.Now(); });
  }
  sim_.Run();
  // 1 s of kernels at <=0.5 usage -> the last one retires after ~2 s.
  EXPECT_GE(last, Millis(1900));
}

TEST_F(FrontendHookTest, CancelWhileTheRequestWaitsHandsTheGrantBack) {
  ContainerStack a(&sim_, &dev_, backend_.get(), "a", ResourceSpec{});
  ContainerStack c(&sim_, &dev_, backend_.get(), "c", ResourceSpec{});
  std::vector<std::string> ran;
  dev_.SetKernelTraceFn(
      [&](const gpu::KernelTraceEvent& e) { ran.push_back(e.name); });
  a.hook.LaunchKernelStream({Millis(20), 0.0, "a"}, 3, nullptr);
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(backend_->HolderOf(dev_.uuid()), ContainerId("a"));
  // c's request queues behind a's grant; c cancels before it is served.
  int c_units = 0;
  c.hook.LaunchKernelStream({Millis(10), 0.0, "c"}, 4, [&] { ++c_units; });
  c.hook.LaunchKernel({Millis(10), 0.0, "c"}, [&] { ++c_units; });
  EXPECT_EQ(c.hook.CancelPending(), 5u);
  EXPECT_EQ(c.hook.PendingKernels(), 0u);
  sim_.Run();
  // The grant that was already owed to c arrives and goes straight back,
  // not at its expiry.
  EXPECT_EQ(backend_->StatsOf(ContainerId("c")).grants, 1u);
  EXPECT_EQ(backend_->StatsOf(ContainerId("c")).held_total, Duration{0});
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
  EXPECT_FALSE(c.hook.holds_valid_token());
  EXPECT_EQ(c_units, 0);
  EXPECT_EQ(ran, (std::vector<std::string>{"a", "a", "a"}));
}

TEST_F(FrontendHookTest, CancelMidStreamLetsTheInFlightUnitRetireThenReleases) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c", ResourceSpec{});
  std::vector<Time> finishes;
  c.hook.LaunchKernelStream({Millis(10), 0.0, "s"}, 10,
                            [&] { finishes.push_back(sim_.Now()); });
  sim_.RunUntil(Millis(35));  // units 1..3 retired, unit 4 in flight
  ASSERT_EQ(finishes.size(), 3u);
  EXPECT_EQ(c.hook.CancelPending(), 6u);
  EXPECT_EQ(c.hook.PendingKernels(), 1u);
  // The in-flight unit keeps the token until it retires.
  EXPECT_EQ(backend_->HolderOf(dev_.uuid()), ContainerId("c"));
  sim_.Run();
  ASSERT_EQ(finishes.size(), 4u);
  EXPECT_EQ(finishes[3] - finishes[2], Millis(10));
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
  EXPECT_FALSE(c.hook.holds_valid_token());
  EXPECT_EQ(c.hook.PendingKernels(), 0u);
  EXPECT_EQ(backend_->StatsOf(ContainerId("c")).grants, 1u);
  EXPECT_EQ(dev_.completed_kernels(), 4u);
}

// A unit's callback runs while the token is still held and nothing is in
// flight, so a launch made from it is forwarded at once.

TEST_F(FrontendHookTest, ValidTokenWithNothingInFlightForwardsAtOnce) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  bool token_valid = false;
  std::size_t on_device = 0;
  Time b_done{0};
  c.hook.LaunchKernel({Millis(10), 0.0, "a"}, [&] {
    token_valid = c.hook.holds_valid_token();
    c.hook.LaunchKernel({Millis(10), 0.0, "b"}, [&] { b_done = sim_.Now(); });
    on_device = dev_.active_kernels();
  });
  sim_.Run();
  EXPECT_TRUE(token_valid);
  EXPECT_EQ(on_device, 1u);
  // b ran right behind a, inside the one grant.
  EXPECT_EQ(b_done, Micros(1500) + Millis(20));
  EXPECT_EQ(backend_->grants(), 1u);
  EXPECT_EQ(c.hook.PendingKernels(), 0u);
}

TEST_F(FrontendHookTest, CancelAfterADirectForwardLetsItRetireThenReleases) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  std::size_t cancelled = 99;
  bool b_done = false;
  c.hook.LaunchKernel({Millis(10), 0.0, "a"}, [&] {
    c.hook.LaunchKernel({Millis(10), 0.0, "b"}, [&] { b_done = true; });
    cancelled = c.hook.CancelPending();
  });
  sim_.RunUntil(Millis(15));  // a retired at 11.5 ms, b is in flight
  EXPECT_EQ(cancelled, 0u);
  EXPECT_EQ(c.hook.PendingKernels(), 1u);
  EXPECT_EQ(backend_->HolderOf(dev_.uuid()), ContainerId("c1"));
  sim_.Run();
  EXPECT_TRUE(b_done);
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
  EXPECT_FALSE(c.hook.holds_valid_token());
  EXPECT_EQ(c.hook.PendingKernels(), 0u);
  EXPECT_EQ(backend_->grants(), 1u);
}

TEST_F(FrontendHookTest, ExpiryDuringADirectForwardYieldsOnceItRetires) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  // Granted at 1.5 ms for 100 ms. a retires at 11.5 ms and forwards b
  // (150 ms) at once, so b is in flight across the expiry at 101.5 ms.
  Time b_done{0};
  c.hook.LaunchKernel({Millis(10), 0.0, "a"}, [&] {
    c.hook.LaunchKernel({Millis(150), 0.0, "b"},
                        [&] { b_done = sim_.Now(); });
  });
  sim_.RunUntil(Millis(120));
  EXPECT_FALSE(c.hook.holds_valid_token());
  EXPECT_EQ(backend_->HolderOf(dev_.uuid()), ContainerId("c1"));  // overrun
  sim_.Run();
  EXPECT_EQ(b_done, Micros(1500) + Millis(160));
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
  EXPECT_EQ(backend_->StatsOf(ContainerId("c1")).overrun_total, Millis(60));
  EXPECT_EQ(backend_->grants(), 1u);
}

TEST_F(FrontendHookTest, ThroughputRatioMatchesQuotaOverhead) {
  // Fig 7 in miniature: a continuously-busy container's goodput fraction is
  // quota / (quota + exchange).
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  int done = 0;
  std::function<void()> next = [&] {
    ++done;
    c.hook.LaunchKernel({Millis(10), 0.0, "k"}, next);
  };
  c.hook.LaunchKernel({Millis(10), 0.0, "k"}, next);
  sim_.RunUntil(Seconds(10));
  const double expected =
      ToSeconds(cfg_.quota) / ToSeconds(cfg_.quota + cfg_.exchange_latency);
  const double measured = static_cast<double>(done) * 0.010 / 10.0;
  EXPECT_NEAR(measured, expected, 0.02);
}

}  // namespace
}  // namespace ks::vgpu
