#include "vgpu/swap.hpp"

#include <gtest/gtest.h>

#include "cuda/context.hpp"
#include "gpu/device.hpp"
#include "vgpu/frontend_hook.hpp"
#include "workload/job.hpp"

namespace ks::vgpu {
namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

TEST(SwapManager, AllocationsLandResidentWhileSpaceFree) {
  SwapManager swap(16 * kGiB);
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 10 * kGiB).ok());
  EXPECT_EQ(swap.ResidentOf(ContainerId("a")), 10 * kGiB);
  EXPECT_EQ(swap.total_resident(), 10 * kGiB);
}

TEST(SwapManager, OverflowStartsSwappedOut) {
  SwapManager swap(16 * kGiB);
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 12 * kGiB).ok());
  ASSERT_TRUE(swap.Allocate(ContainerId("b"), 12 * kGiB).ok());
  EXPECT_EQ(swap.total_allocated(), 24 * kGiB);
  EXPECT_EQ(swap.ResidentOf(ContainerId("b")), 4 * kGiB);
  EXPECT_EQ(swap.total_resident(), 16 * kGiB);
}

TEST(SwapManager, ZeroByteAllocationRejected) {
  SwapManager swap(16 * kGiB);
  EXPECT_FALSE(swap.Allocate(ContainerId("a"), 0).ok());
}

TEST(SwapManager, MakeResidentEvictsLeastRecentlyRun) {
  SwapManager swap(16 * kGiB, {.link_bandwidth_bytes_per_s = 8e9});
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 12 * kGiB).ok());
  ASSERT_TRUE(swap.Allocate(ContainerId("b"), 12 * kGiB).ok());
  // b runs: needs 8 GiB more; evict from a (the only victim).
  const Duration d = swap.MakeResident(ContainerId("b"), Seconds(1));
  EXPECT_EQ(swap.ResidentOf(ContainerId("b")), 12 * kGiB);
  EXPECT_EQ(swap.ResidentOf(ContainerId("a")), 4 * kGiB);
  // 8 GiB in + 8 GiB out at 8 GB/s ~ 2.1 s.
  EXPECT_NEAR(ToSeconds(d), 2.0 * static_cast<double>(8 * kGiB) / 8e9, 0.01);
  EXPECT_EQ(swap.swap_ins(), 1u);
  EXPECT_GT(swap.bytes_migrated(), 0u);
}

TEST(SwapManager, ResidentWorkingSetCostsNothing) {
  SwapManager swap(16 * kGiB);
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 8 * kGiB).ok());
  EXPECT_EQ(swap.MakeResident(ContainerId("a"), Seconds(1)), Duration{0});
  EXPECT_EQ(swap.swap_ins(), 0u);
}

TEST(SwapManager, AlternatingHoldersThrashDeterministically) {
  SwapManager swap(16 * kGiB);
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 12 * kGiB).ok());
  ASSERT_TRUE(swap.Allocate(ContainerId("b"), 12 * kGiB).ok());
  Duration total{0};
  for (int round = 0; round < 4; ++round) {
    total += swap.MakeResident(ContainerId("a"), Seconds(round * 2));
    total += swap.MakeResident(ContainerId("b"), Seconds(round * 2 + 1));
  }
  // Every hand-off after the first moves 8 GiB in and 8 GiB out.
  EXPECT_GT(total, Seconds(5));
  EXPECT_EQ(swap.total_resident(), 16 * kGiB);
}

TEST(SwapManager, NeverRunVictimsEvictInRegistrationOrder) {
  // Regression: among owners that have never run (all last_run == 0) the
  // eviction victim is the earliest-registered one, not whichever sorts
  // first lexically. Register "b" before "a": bringing "c" in must evict
  // from "b" first.
  SwapConfig cfg;
  cfg.page_bytes = 2ull << 20;
  SwapManager swap(16 * kGiB, cfg);
  ASSERT_TRUE(swap.Allocate(ContainerId("b"), 8 * kGiB).ok());
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 8 * kGiB).ok());
  ASSERT_TRUE(swap.Allocate(ContainerId("c"), 8 * kGiB).ok());
  (void)swap.MakeResident(ContainerId("c"), Seconds(1));
  EXPECT_EQ(swap.ResidentOf(ContainerId("c")), 8 * kGiB);
  EXPECT_EQ(swap.ResidentOf(ContainerId("b")), 0u)
      << "first-registered never-run owner must be the first victim";
  EXPECT_EQ(swap.ResidentOf(ContainerId("a")), 8 * kGiB);
}

TEST(SwapManager, OversubscriptionFactorBoundsAggregateAllocation) {
  SwapConfig cfg;
  cfg.oversubscription_factor = 2.0;
  SwapManager swap(16 * kGiB, cfg);
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 16 * kGiB).ok());
  ASSERT_TRUE(swap.Allocate(ContainerId("b"), 16 * kGiB).ok());
  const Status s = swap.Allocate(ContainerId("c"), 1 * kGiB);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Freeing makes room again.
  ASSERT_TRUE(swap.Free(ContainerId("a"), 8 * kGiB).ok());
  EXPECT_TRUE(swap.Allocate(ContainerId("c"), 1 * kGiB).ok());
}

TEST(SwapManager, FreeReleasesResidentFirst) {
  SwapManager swap(16 * kGiB);
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 12 * kGiB).ok());
  ASSERT_TRUE(swap.Free(ContainerId("a"), 8 * kGiB).ok());
  EXPECT_EQ(swap.AllocatedBy(ContainerId("a")), 4 * kGiB);
  EXPECT_EQ(swap.ResidentOf(ContainerId("a")), 4 * kGiB);
  EXPECT_FALSE(swap.Free(ContainerId("a"), 8 * kGiB).ok());  // too much
  EXPECT_FALSE(swap.Free(ContainerId("ghost"), 1).ok());
}

TEST(SwapManager, FreeAllDropsEverything) {
  SwapManager swap(16 * kGiB);
  ASSERT_TRUE(swap.Allocate(ContainerId("a"), 12 * kGiB).ok());
  swap.FreeAll(ContainerId("a"));
  EXPECT_EQ(swap.total_allocated(), 0u);
  EXPECT_EQ(swap.total_resident(), 0u);
  swap.FreeAll(ContainerId("a"));  // idempotent
}

// ---- FrontendHook over-commitment integration ---------------------------

class OvercommitHookTest : public ::testing::Test {
 protected:
  OvercommitHookTest()
      : dev_(&sim_, GpuUuid("GPU-0")),
        backend_(&sim_),
        swap_(dev_.spec().memory_bytes, {.link_bandwidth_bytes_per_s = 8e9}) {}

  struct Stack {
    Stack(OvercommitHookTest* t, const std::string& name, double mem_quota)
        : ctx(&t->dev_, ContainerId(name)),
          hook(&ctx, &t->backend_, ContainerId(name), t->dev_.uuid(),
               MakeSpec(mem_quota), t->dev_.spec().memory_bytes) {
      hook.EnableMemoryOvercommit(&t->swap_, &t->sim_);
    }
    static ResourceSpec MakeSpec(double mem) {
      ResourceSpec s;
      s.gpu_mem = mem;
      return s;
    }
    cuda::CudaContext ctx;
    FrontendHook hook;
  };

  sim::Simulation sim_;
  gpu::GpuDevice dev_{&sim_, GpuUuid("GPU-0")};
  TokenBackend backend_{&sim_};
  SwapManager swap_{16ull << 30};
};

TEST_F(OvercommitHookTest, AggregateAllocationsMayExceedDevice) {
  Stack a(this, "a", 0.75);
  Stack b(this, "b", 0.75);
  gpu::DevicePtr pa = 0, pb = 0;
  EXPECT_EQ(a.hook.MemAlloc(&pa, 11 * kGiB), cuda::CudaResult::kSuccess);
  EXPECT_EQ(b.hook.MemAlloc(&pb, 11 * kGiB), cuda::CudaResult::kSuccess);
  EXPECT_EQ(swap_.total_allocated(), 22 * kGiB);
  // The physical device ledger never sees these allocations.
  EXPECT_EQ(dev_.used_memory(), 0u);
}

TEST_F(OvercommitHookTest, PerContainerQuotaStillApplies) {
  Stack a(this, "a", 0.5);
  gpu::DevicePtr p = 0;
  EXPECT_EQ(a.hook.MemAlloc(&p, 9 * kGiB),
            cuda::CudaResult::kErrorOutOfMemory);
}

TEST_F(OvercommitHookTest, MemFreeReturnsQuotaAndSwapSpace) {
  Stack a(this, "a", 0.5);
  gpu::DevicePtr p = 0;
  ASSERT_EQ(a.hook.MemAlloc(&p, 8 * kGiB), cuda::CudaResult::kSuccess);
  ASSERT_EQ(a.hook.MemFree(p), cuda::CudaResult::kSuccess);
  EXPECT_EQ(swap_.total_allocated(), 0u);
  EXPECT_EQ(a.hook.MemFree(p), cuda::CudaResult::kErrorInvalidValue);
}

TEST_F(OvercommitHookTest, TokenGrantPaysMigrationDelay) {
  Stack a(this, "a", 0.75);
  Stack b(this, "b", 0.75);
  gpu::DevicePtr p = 0;
  ASSERT_EQ(a.hook.MemAlloc(&p, 12 * kGiB), cuda::CudaResult::kSuccess);
  ASSERT_EQ(b.hook.MemAlloc(&p, 12 * kGiB), cuda::CudaResult::kSuccess);

  // a runs first (resident), then b must swap 8 GiB in/out before its
  // kernel starts.
  Time a_done{0}, b_done{0};
  a.hook.LaunchKernel({Millis(10), 0.0, "ka"}, [&] { a_done = sim_.Now(); });
  sim_.RunUntil(Millis(50));
  b.hook.LaunchKernel({Millis(10), 0.0, "kb"}, [&] { b_done = sim_.Now(); });
  sim_.Run();
  EXPECT_GT(a_done.count(), 0);
  EXPECT_GT(b_done.count(), 0);
  // b's kernel waited for ~2 s of page migration (16 GiB moved at 8 GB/s),
  // far beyond the ~10 ms it would need without over-commitment.
  EXPECT_GT(b_done - Millis(50), Seconds(2));
  EXPECT_GE(swap_.swap_ins(), 1u);
}

TEST_F(OvercommitHookTest, ResidentContainerRunsWithoutDelay) {
  Stack a(this, "a", 0.5);
  gpu::DevicePtr p = 0;
  ASSERT_EQ(a.hook.MemAlloc(&p, 4 * kGiB), cuda::CudaResult::kSuccess);
  Time done{0};
  a.hook.LaunchKernel({Millis(10), 0.0, "k"}, [&] { done = sim_.Now(); });
  sim_.Run();
  // Exchange latency + kernel only; no migration.
  EXPECT_LT(done, Millis(20));
}

}  // namespace
}  // namespace ks::vgpu
