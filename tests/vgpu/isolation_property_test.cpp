#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "cuda/context.hpp"
#include "gpu/device.hpp"
#include "vgpu/frontend_hook.hpp"
#include "vgpu/token_backend.hpp"

namespace ks::vgpu {
namespace {

/// A container that always has another kernel to run (a training job): the
/// adversarial workload for the isolation guarantees.
class GreedyJob {
 public:
  GreedyJob(sim::Simulation* sim, gpu::GpuDevice* dev, TokenBackend* backend,
            const std::string& name, ResourceSpec spec,
            Duration kernel = Millis(10))
      : ctx_(dev, ContainerId(name)),
        hook_(&ctx_, backend, ContainerId(name), dev->uuid(), spec,
              dev->spec().memory_bytes),
        kernel_(kernel) {
    (void)sim;
    LaunchNext();
  }

  const FrontendHook& hook() const { return hook_; }

 private:
  void LaunchNext() {
    hook_.LaunchKernel({kernel_, 0.0, "train"}, [this] { LaunchNext(); });
  }

  cuda::CudaContext ctx_;
  FrontendHook hook_;
  Duration kernel_;
};

struct MixParam {
  std::uint64_t seed;
  int containers;
};

class IsolationProperty : public ::testing::TestWithParam<MixParam> {};

/// Property (paper §4.5): for any mix of greedy containers whose
/// gpu_requests sum to <= 1, after the system warms up every container's
/// sliding-window usage stays within [gpu_request - eps, gpu_limit + eps].
/// The upper tolerance covers quota-granularity fluctuation (Fig 6 notes
/// usage "slightly fluctuates at its requested demand"); the lower covers
/// exchange-latency loss.
TEST_P(IsolationProperty, GreedyMixRespectsRequestAndLimit) {
  const MixParam param = GetParam();
  Rng rng(param.seed);
  sim::Simulation sim;
  gpu::GpuDevice dev(&sim, GpuUuid("GPU-P"));
  BackendConfig cfg;
  cfg.quota = Millis(100);
  TokenBackend backend(&sim, cfg);

  // Draw requests that sum to <= 1 (the scheduler guarantees this at
  // placement time; the backend relies on it).
  std::vector<ResourceSpec> specs(param.containers);
  double budget = 1.0;
  for (int i = 0; i < param.containers; ++i) {
    const double req = rng.Uniform(0.05, budget / (param.containers - i));
    budget -= req;
    specs[i].gpu_request = req;
    specs[i].gpu_limit = std::min(1.0, req + rng.Uniform(0.0, 0.5));
  }

  std::vector<std::unique_ptr<GreedyJob>> jobs;
  for (int i = 0; i < param.containers; ++i) {
    jobs.push_back(std::make_unique<GreedyJob>(
        &sim, &dev, &backend, "job-" + std::to_string(i), specs[i]));
  }

  sim.RunUntil(Seconds(120));

  const double kQuotaEps = 0.06;  // one quota is 1% of the 10s window
  double total_usage = 0.0;
  for (int i = 0; i < param.containers; ++i) {
    const double usage =
        backend.UsageOf(ContainerId("job-" + std::to_string(i)));
    total_usage += usage;
    EXPECT_LE(usage, specs[i].gpu_limit + kQuotaEps)
        << "container " << i << " exceeded its gpu_limit";
    EXPECT_GE(usage, specs[i].gpu_request - kQuotaEps)
        << "container " << i << " starved below its gpu_request";
  }
  EXPECT_LE(total_usage, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomMixes, IsolationProperty,
    ::testing::Values(MixParam{1, 2}, MixParam{2, 2}, MixParam{3, 3},
                      MixParam{4, 3}, MixParam{5, 4}, MixParam{6, 4},
                      MixParam{7, 5}, MixParam{8, 5}, MixParam{9, 6},
                      MixParam{10, 8}),
    [](const ::testing::TestParamInfo<MixParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.containers);
    });

struct MemParam {
  std::uint64_t seed;
};

class MemoryProperty : public ::testing::TestWithParam<MemParam> {};

/// Property: under any random alloc/free sequence, the frontend's ledger
/// never lets a container exceed its gpu_mem quota, and the device-level
/// ledger agrees with the hook-level ledger.
TEST_P(MemoryProperty, RandomAllocFreeNeverExceedsQuota) {
  Rng rng(GetParam().seed);
  sim::Simulation sim;
  gpu::GpuDevice dev(&sim, GpuUuid("GPU-M"));
  TokenBackend backend(&sim);
  ResourceSpec spec;
  spec.gpu_mem = rng.Uniform(0.1, 0.9);
  cuda::CudaContext ctx(&dev, ContainerId("m"));
  FrontendHook hook(&ctx, &backend, ContainerId("m"), dev.uuid(), spec,
                    dev.spec().memory_bytes);
  const std::uint64_t quota = hook.memory_quota_bytes();

  std::vector<gpu::DevicePtr> live;
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.Chance(0.6)) {
      const auto bytes = static_cast<std::uint64_t>(
          rng.UniformInt(1, static_cast<std::int64_t>(quota / 4 + 1)));
      gpu::DevicePtr p = 0;
      const auto r = hook.MemAlloc(&p, bytes);
      if (hook.AllocatedBytes() > quota) {
        ADD_FAILURE() << "ledger exceeded quota at step " << step;
      }
      if (r == cuda::CudaResult::kSuccess) live.push_back(p);
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      EXPECT_EQ(hook.MemFree(live[idx]), cuda::CudaResult::kSuccess);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    EXPECT_LE(hook.AllocatedBytes(), quota);
    EXPECT_EQ(hook.AllocatedBytes(), dev.MemoryUsedBy(ContainerId("m")));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryProperty,
                         ::testing::Values(MemParam{11}, MemParam{22},
                                           MemParam{33}, MemParam{44},
                                           MemParam{55}),
                         [](const ::testing::TestParamInfo<MemParam>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

/// Two containers on separate devices managed by one backend must both run
/// at full tilt — the backend manages each device's token independently.
TEST(IsolationCross, SeparateDevicesRunConcurrently) {
  sim::Simulation sim;
  gpu::GpuDevice d1(&sim, GpuUuid("GPU-1"));
  gpu::GpuDevice d2(&sim, GpuUuid("GPU-2"));
  TokenBackend backend(&sim);
  GreedyJob a(&sim, &d1, &backend, "a", ResourceSpec{});
  GreedyJob b(&sim, &d2, &backend, "b", ResourceSpec{});
  sim.RunUntil(Seconds(20));
  EXPECT_GT(backend.UsageOf(ContainerId("a")), 0.9);
  EXPECT_GT(backend.UsageOf(ContainerId("b")), 0.9);
}

}  // namespace
}  // namespace ks::vgpu
