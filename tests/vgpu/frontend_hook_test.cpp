#include "vgpu/frontend_hook.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
  ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream,
                                [&] { done = true; }),
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
  ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream,
                                nullptr),
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
    ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"},
                                  cuda::kDefaultStream, [&] { ++done; }),
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
    a.hook.LaunchKernel({Millis(20), 0.0, "ka"}, cuda::kDefaultStream,
                        [&] { ++done_a; });
    b.hook.LaunchKernel({Millis(20), 0.0, "kb"}, cuda::kDefaultStream,
                        [&] { ++done_b; });
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
  c.hook.LaunchKernel({Millis(250), 0.0, "long"}, cuda::kDefaultStream,
                      [&] { done = true; });
  sim_.RunUntil(Millis(200));
  EXPECT_FALSE(done);
  EXPECT_EQ(backend_->HolderOf(dev_.uuid()), ContainerId("c1"));  // overrun
  sim_.RunUntil(Millis(300));
  EXPECT_TRUE(done);
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
}

TEST_F(FrontendHookTest, SynchronizeCoversQueuedKernels) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  bool synced = false;
  c.hook.LaunchKernel({Millis(50), 0.0, "k"}, cuda::kDefaultStream, nullptr);
  c.hook.Synchronize([&] { synced = true; });
  EXPECT_FALSE(synced);
  sim_.Run();
  EXPECT_TRUE(synced);
}

TEST_F(FrontendHookTest, StreamLifecycleForwarded) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  cuda::StreamId s = 0;
  ASSERT_EQ(c.hook.StreamCreate(&s), cuda::CudaResult::kSuccess);
  c.hook.LaunchKernel({Millis(5), 0.0, "k"}, s, nullptr);
  EXPECT_EQ(c.hook.StreamDestroy(s), cuda::CudaResult::kErrorNotReady);
  sim_.Run();
  EXPECT_EQ(c.hook.StreamDestroy(s), cuda::CudaResult::kSuccess);
}

TEST_F(FrontendHookTest, GrantForwardsQueuedStreamHeadsInIdOrder) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  std::vector<gpu::KernelTraceEvent> trace;
  dev_.SetKernelTraceFn(
      [&](const gpu::KernelTraceEvent& e) { trace.push_back(e); });
  cuda::StreamId s[3] = {};
  for (cuda::StreamId& id : s) {
    ASSERT_EQ(c.hook.StreamCreate(&id), cuda::CudaResult::kSuccess);
  }
  ASSERT_LT(s[0], s[1]);
  ASSERT_LT(s[1], s[2]);
  // One kernel per stream, the newest stream first, all queued in the hook
  // until the token arrives.
  for (int i : {2, 0, 1}) {
    ASSERT_EQ(c.hook.LaunchKernel({Millis(5), 0.0, "s" + std::to_string(i)},
                                  s[i], nullptr),
              cuda::CudaResult::kSuccess);
  }
  EXPECT_FALSE(c.hook.holds_valid_token());
  sim_.Run();
  // The grant forwards every head at once; the device numbers kernels in
  // submission order.
  ASSERT_EQ(trace.size(), 3u);
  std::sort(trace.begin(), trace.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  EXPECT_EQ(trace[0].name, "s0");
  EXPECT_EQ(trace[1].name, "s1");
  EXPECT_EQ(trace[2].name, "s2");
  EXPECT_EQ(trace[0].start, trace[2].start);
}

TEST_F(FrontendHookTest, DestroyedIdsStayInvalidAndAreNeverReused) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  cuda::StreamId s = 0;
  cuda::EventId ev = 0;
  ASSERT_EQ(c.hook.StreamCreate(&s), cuda::CudaResult::kSuccess);
  ASSERT_EQ(c.hook.EventCreate(&ev), cuda::CudaResult::kSuccess);
  ASSERT_EQ(c.hook.StreamDestroy(s), cuda::CudaResult::kSuccess);
  ASSERT_EQ(c.hook.EventDestroy(ev), cuda::CudaResult::kSuccess);
  for (int round = 0; round < 2; ++round) {
    // Before and after new ids are handed out, the destroyed ones stay dead.
    EXPECT_EQ(c.hook.StreamDestroy(s), cuda::CudaResult::kErrorInvalidHandle);
    EXPECT_EQ(c.hook.LaunchKernel({Millis(5), 0.0, "k"}, s, nullptr),
              cuda::CudaResult::kErrorInvalidHandle);
    EXPECT_EQ(c.hook.CancelPending(s), 0u);
    EXPECT_EQ(c.hook.EventRecord(ev, cuda::kDefaultStream),
              cuda::CudaResult::kErrorInvalidHandle);
    EXPECT_EQ(c.hook.EventQuery(ev), cuda::CudaResult::kErrorInvalidHandle);
    EXPECT_EQ(c.hook.EventDestroy(ev), cuda::CudaResult::kErrorInvalidHandle);
    cuda::StreamId s2 = 0;
    cuda::EventId ev2 = 0;
    ASSERT_EQ(c.hook.StreamCreate(&s2), cuda::CudaResult::kSuccess);
    ASSERT_EQ(c.hook.EventCreate(&ev2), cuda::CudaResult::kSuccess);
    EXPECT_GT(s2, s);
    EXPECT_GT(ev2, ev);
    EXPECT_EQ(c.hook.EventRecord(ev2, s),
              cuda::CudaResult::kErrorInvalidHandle);
  }
  EXPECT_EQ(c.hook.PendingKernels(), 0u);
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
}

TEST_F(FrontendHookTest, LaunchOnUnknownStreamFails) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  EXPECT_EQ(c.hook.LaunchKernel({Millis(5), 0.0, "k"}, 777, nullptr),
            cuda::CudaResult::kErrorInvalidHandle);
}

TEST_F(FrontendHookTest, EventsKeepOrderThroughTheHookQueues) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  cuda::EventId ev = 0;
  ASSERT_EQ(c.hook.EventCreate(&ev), cuda::CudaResult::kSuccess);
  // Two kernels queue in the hook (no token yet), then the event: it must
  // not complete before both kernels retire.
  c.hook.LaunchKernel({Millis(30), 0.0, "a"}, cuda::kDefaultStream, nullptr);
  c.hook.LaunchKernel({Millis(30), 0.0, "b"}, cuda::kDefaultStream, nullptr);
  ASSERT_EQ(c.hook.EventRecord(ev, cuda::kDefaultStream),
            cuda::CudaResult::kSuccess);
  EXPECT_EQ(c.hook.EventQuery(ev), cuda::CudaResult::kErrorNotReady);
  Time fired{0};
  ASSERT_EQ(c.hook.EventSynchronize(ev, [&] { fired = sim_.Now(); }),
            cuda::CudaResult::kSuccess);
  sim_.Run();
  EXPECT_EQ(c.hook.EventQuery(ev), cuda::CudaResult::kSuccess);
  // Exchange (~1.5 ms) + 60 ms of kernels.
  EXPECT_GE(fired, Millis(60));
}

TEST_F(FrontendHookTest, EventOnEmptyHookQueueCompletesWithoutToken) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  cuda::EventId ev = 0;
  ASSERT_EQ(c.hook.EventCreate(&ev), cuda::CudaResult::kSuccess);
  ASSERT_EQ(c.hook.EventRecord(ev, cuda::kDefaultStream),
            cuda::CudaResult::kSuccess);
  // No kernels, no token needed — events consume no GPU time.
  EXPECT_EQ(c.hook.EventQuery(ev), cuda::CudaResult::kSuccess);
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
}

TEST_F(FrontendHookTest, EventElapsedTimeSpansThrottledKernels) {
  ResourceSpec spec;
  spec.gpu_request = 0.2;
  spec.gpu_limit = 0.5;  // throttled to half speed
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  cuda::EventId start = 0, end = 0;
  c.hook.EventCreate(&start);
  c.hook.EventCreate(&end);
  c.hook.EventRecord(start, cuda::kDefaultStream);
  for (int i = 0; i < 100; ++i) {
    c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream,
                        nullptr);
  }
  c.hook.EventRecord(end, cuda::kDefaultStream);
  sim_.Run();
  Duration elapsed{0};
  ASSERT_EQ(c.hook.EventElapsedTime(&elapsed, start, end),
            cuda::CudaResult::kSuccess);
  // 1 s of kernels at <=0.5 usage -> ~2 s between the events.
  EXPECT_GE(elapsed, Millis(1900));
}

TEST_F(FrontendHookTest, ThroughputRatioMatchesQuotaOverhead) {
  // Fig 7 in miniature: a continuously-busy container's goodput fraction is
  // quota / (quota + exchange).
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  int done = 0;
  std::function<void()> next = [&] {
    ++done;
    c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream, next);
  };
  c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream, next);
  sim_.RunUntil(Seconds(10));
  const double expected =
      ToSeconds(cfg_.quota) / ToSeconds(cfg_.quota + cfg_.exchange_latency);
  const double measured = static_cast<double>(done) * 0.010 / 10.0;
  EXPECT_NEAR(measured, expected, 0.02);
}

}  // namespace
}  // namespace ks::vgpu
