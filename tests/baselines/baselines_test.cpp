#include <gtest/gtest.h>

#include "baselines/extender.hpp"
#include "baselines/fractional_client.hpp"
#include "baselines/memory_hook.hpp"
#include "baselines/traits.hpp"
#include "cuda/context.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::baselines {
namespace {

TEST(Traits, MatchTable1) {
  // The comparison matrix of the paper's Table 1.
  const BaselineTraits deep = DeepomaticTraits();
  EXPECT_FALSE(deep.multi_gpu_per_node);
  EXPECT_FALSE(deep.memory_isolation);
  EXPECT_FALSE(deep.compute_isolation);

  const BaselineTraits aliyun = AliyunTraits();
  EXPECT_TRUE(aliyun.multi_gpu_per_node);
  EXPECT_TRUE(aliyun.memory_isolation);
  EXPECT_FALSE(aliyun.compute_isolation);

  const BaselineTraits gaia = GaiaGpuTraits();
  EXPECT_TRUE(gaia.compute_isolation);
  EXPECT_FALSE(gaia.first_class_identity);
  EXPECT_FALSE(gaia.locality_constraints);

  const BaselineTraits kubeshare = KubeShareTraits();
  EXPECT_TRUE(kubeshare.first_class_identity);
  EXPECT_TRUE(kubeshare.locality_constraints);
  EXPECT_TRUE(kubeshare.coexists_with_kube_scheduler);
  EXPECT_TRUE(kubeshare.arbitrary_fractions);
}

class MemoryHookTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  gpu::GpuDevice dev_{&sim_, GpuUuid("GPU-0")};
  cuda::CudaContext ctx_{&dev_, ContainerId("c")};
};

TEST_F(MemoryHookTest, EnforcesQuota) {
  MemoryOnlyHook hook(&ctx_, 1000);
  gpu::DevicePtr p = 0;
  EXPECT_EQ(hook.MemAlloc(&p, 600), cuda::CudaResult::kSuccess);
  EXPECT_EQ(hook.MemAlloc(&p, 600), cuda::CudaResult::kErrorOutOfMemory);
  EXPECT_EQ(hook.AllocatedBytes(), 600u);
}

TEST_F(MemoryHookTest, FreeRestoresQuota) {
  MemoryOnlyHook hook(&ctx_, 1000);
  gpu::DevicePtr p = 0;
  ASSERT_EQ(hook.MemAlloc(&p, 1000), cuda::CudaResult::kSuccess);
  ASSERT_EQ(hook.MemFree(p), cuda::CudaResult::kSuccess);
  EXPECT_EQ(hook.MemAlloc(&p, 1000), cuda::CudaResult::kSuccess);
}

TEST_F(MemoryHookTest, ArrayCreateCountsAgainstQuota) {
  MemoryOnlyHook hook(&ctx_, 1000);
  gpu::DevicePtr p = 0;
  EXPECT_EQ(hook.ArrayCreate(&p, 100, 100, 1),
            cuda::CudaResult::kErrorOutOfMemory);
  EXPECT_EQ(hook.ArrayCreate(&p, 10, 10, 1), cuda::CudaResult::kSuccess);
}

TEST_F(MemoryHookTest, KernelsPassThroughUnthrottled) {
  MemoryOnlyHook hook(&ctx_, 1000);
  bool done = false;
  EXPECT_EQ(hook.LaunchKernel({Millis(5), 0.0, "k"}, [&] { done = true; }),
            cuda::CudaResult::kSuccess);
  sim_.Run();
  EXPECT_TRUE(done);  // no token protocol in the way
}

TEST_F(MemoryHookTest, PrefetchReachesTheDeviceMigrationLane) {
  MemoryOnlyHook hook(&ctx_, 1000);
  sim_.RunUntil(Millis(3));
  Time landed{0};
  bool fired = false;
  ASSERT_EQ(hook.MemPrefetch(1 << 20, Millis(40),
                             [&] {
                               fired = true;
                               landed = sim_.Now();
                             }),
            cuda::CudaResult::kSuccess);
  // The transfer is charged to the device, not completed on the spot.
  EXPECT_FALSE(fired);
  EXPECT_EQ(dev_.migrations_charged(), 1u);
  sim_.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(landed, Millis(43));
}

class FractionalClientTest : public ::testing::Test {
 protected:
  static k8s::ClusterConfig ScaledCluster() {
    k8s::ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.gpus_per_node = 2;
    cfg.scaled_plugin = true;
    cfg.plugin_scale = 100;
    return cfg;
  }

  FractionalClientTest() : cluster_(ScaledCluster()), host_(&cluster_) {
    EXPECT_TRUE(cluster_.Start().ok());
  }

  k8s::Cluster cluster_;
  workload::WorkloadHost host_;
};

TEST_F(FractionalClientTest, AliyunJobRunsWithMemoryIsolationOnly) {
  FractionalClient client(&cluster_, &host_, AliyunTraits());
  workload::TrainingSpec big;
  big.model_bytes = 12ull << 30;  // 12 GB > 50% of 16 GB
  ASSERT_TRUE(client
                  .Submit("oom-job", 0.5, 0.5,
                          [big] { return std::make_unique<workload::TrainingJob>(big); })
                  .ok());
  cluster_.sim().RunUntil(Seconds(30));
  // Memory isolation rejected the over-quota model -> job failed cleanly.
  EXPECT_EQ(host_.failed(), 1u);
}

TEST_F(FractionalClientTest, AliyunCannotThrottleCompute) {
  FractionalClient client(&cluster_, &host_, AliyunTraits());
  workload::TrainingSpec spec;
  spec.steps = 100;
  spec.step_kernel = Millis(10);
  spec.model_bytes = 1ull << 30;
  // The job claims only 20% of a GPU but runs unthrottled: 1s of kernels
  // completes in ~1s, not ~5s.
  ASSERT_TRUE(client
                  .Submit("greedy", 0.2, 0.5,
                          [spec] { return std::make_unique<workload::TrainingJob>(spec); })
                  .ok());
  cluster_.sim().RunUntil(Seconds(30));
  ASSERT_EQ(host_.completed(), 1u);
  const auto* rec = host_.RecordOf("greedy");
  EXPECT_LT(rec->finished - rec->started, Millis(1500));
}

TEST_F(FractionalClientTest, GaiaGpuThrottlesCompute) {
  FractionalClient client(&cluster_, &host_, GaiaGpuTraits());
  workload::TrainingSpec spec;
  spec.steps = 100;
  spec.step_kernel = Millis(10);
  spec.model_bytes = 1ull << 30;
  ASSERT_TRUE(client
                  .Submit("throttled", 0.2, 0.5,
                          [spec] { return std::make_unique<workload::TrainingJob>(spec); })
                  .ok());
  cluster_.sim().RunUntil(Seconds(60));
  ASSERT_EQ(host_.completed(), 1u);
  const auto* rec = host_.RecordOf("throttled");
  // 1s of kernels hard-capped at 20% usage -> ~5s wall time.
  EXPECT_GE(rec->finished - rec->started, Seconds(4));
}

TEST_F(FractionalClientTest, DeepomaticRejectsMultiGpuNodes) {
  FractionalClient client(&cluster_, &host_, DeepomaticTraits());
  const Status s = client.Submit("x", 0.5, 0.5, [] {
    return std::make_unique<workload::TrainingJob>(workload::TrainingSpec{});
  });
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FractionalClientTest, InvalidDemandRejected) {
  FractionalClient client(&cluster_, &host_, AliyunTraits());
  EXPECT_FALSE(client.Submit("x", 0.0, 0.5, nullptr).ok());
  EXPECT_FALSE(client.Submit("x", 1.5, 0.5, nullptr).ok());
}

class ExtenderTest : public ::testing::Test {
 protected:
  static k8s::ClusterConfig Config() {
    k8s::ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.gpus_per_node = 2;
    return cfg;
  }

  ExtenderTest() : cluster_(Config()) {
    EXPECT_TRUE(cluster_.Start().ok());
    extender_ = std::make_unique<ShareExtenderScheduler>(&cluster_);
  }

  k8s::Cluster cluster_;
  std::unique_ptr<ShareExtenderScheduler> extender_;
};

TEST_F(ExtenderTest, TracksPerGpuCommitmentsFirstFit) {
  ASSERT_TRUE(extender_->Submit("a", 0.6, 0.2).ok());
  ASSERT_TRUE(extender_->Submit("b", 0.6, 0.2).ok());  // spills to GPU 2
  ASSERT_TRUE(extender_->Submit("c", 0.4, 0.2).ok());  // back-fills GPU 1
  EXPECT_NEAR(extender_->CommittedOn(GpuUuid("GPU-0-0")), 1.0, 1e-9);
  EXPECT_NEAR(extender_->CommittedOn(GpuUuid("GPU-0-1")), 0.6, 1e-9);
  // No per-GPU capacity left for another 0.6.
  EXPECT_EQ(extender_->Submit("d", 0.6, 0.2).code(),
            StatusCode::kUnavailable);
  cluster_.sim().RunUntil(Seconds(10));
  // Pods run on the exact GPUs the extender chose.
  EXPECT_EQ(cluster_.api().pods().Get("a")->status.effective_env.at(
                k8s::kNvidiaVisibleDevices),
            "GPU-0-0");
  EXPECT_EQ(cluster_.api().pods().Get("b")->status.effective_env.at(
                k8s::kNvidiaVisibleDevices),
            "GPU-0-1");
}

TEST_F(ExtenderTest, TerminalPodsFreeTheLedger) {
  ASSERT_TRUE(extender_->Submit("a", 0.9, 0.2).ok());
  cluster_.sim().RunUntil(Seconds(10));
  ASSERT_TRUE(cluster_.api().pods().Delete("a").ok());
  cluster_.sim().RunUntil(Seconds(15));
  EXPECT_NEAR(extender_->CommittedOn(GpuUuid("GPU-0-0")), 0.0, 1e-9);
  EXPECT_TRUE(extender_->Submit("b", 0.9, 0.2).ok());
}

TEST_F(ExtenderTest, DoesNotCoexistWithKubeScheduler) {
  // Table 1's co-existence row, demonstrated: a native pod takes a whole
  // GPU through kube-scheduler, but the extender's private ledger never
  // learns of it and happily commits fractions of the SAME device.
  k8s::Pod native;
  native.meta.name = "native";
  native.spec.requests.Set(k8s::kResourceNvidiaGpu, 1);
  ASSERT_TRUE(cluster_.api().pods().Create(native).ok());
  cluster_.sim().RunUntil(Seconds(10));
  const std::string taken = cluster_.api()
                                .pods()
                                .Get("native")
                                ->status.effective_env.at(
                                    k8s::kNvidiaVisibleDevices);
  // Fill the extender's view of that very GPU.
  int placed_on_taken = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        extender_->Submit("frac-" + std::to_string(i), 0.5, 0.1).ok());
  }
  cluster_.sim().RunUntil(Seconds(20));
  for (int i = 0; i < 4; ++i) {
    const auto pod = cluster_.api().pods().Get("frac-" + std::to_string(i));
    ASSERT_TRUE(pod.ok());
    auto it = pod->status.effective_env.find(k8s::kNvidiaVisibleDevices);
    ASSERT_NE(it, pod->status.effective_env.end());
    if (it->second == taken) ++placed_on_taken;
  }
  // The extender over-committed the native pod's device: silent conflict.
  EXPECT_GE(placed_on_taken, 1);
}

TEST_F(ExtenderTest, InvalidDemandRejected) {
  EXPECT_FALSE(extender_->Submit("x", 0.0, 0.1).ok());
  EXPECT_FALSE(extender_->Submit("x", 1.5, 0.1).ok());
}

TEST_F(FractionalClientTest, FragmentationOvercommitsOneGpu) {
  // Two 60%-jobs fit the node's 200 aggregate units, but the kubelet's
  // first-fit unit pick plus first-unit GPU binding puts BOTH on GPU-0-0:
  // 120% on one device, 0% on the other — Fig 3a.
  FractionalClient client(&cluster_, &host_, AliyunTraits());
  workload::TrainingSpec spec;
  spec.steps = 200;
  spec.step_kernel = Millis(10);
  spec.model_bytes = 1ull << 30;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client
                    .Submit("frag-" + std::to_string(i), 0.6, 0.4,
                            [spec] {
                              return std::make_unique<workload::TrainingJob>(spec);
                            })
                    .ok());
  }
  cluster_.sim().RunUntil(Seconds(60));
  EXPECT_EQ(host_.completed(), 2u);
  gpu::GpuDevice* gpu0 = cluster_.FindGpu(GpuUuid("GPU-0-0"));
  gpu::GpuDevice* gpu1 = cluster_.FindGpu(GpuUuid("GPU-0-1"));
  gpu0->utilization().Flush(cluster_.sim().Now());
  gpu1->utilization().Flush(cluster_.sim().Now());
  EXPECT_GT(ToSeconds(gpu0->utilization().TotalBusy()), 1.0);
  EXPECT_DOUBLE_EQ(ToSeconds(gpu1->utilization().TotalBusy()), 0.0);
}

}  // namespace
}  // namespace ks::baselines
