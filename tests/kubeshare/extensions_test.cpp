#include <gtest/gtest.h>

#include "kubeshare/kubeshare.hpp"
#include "kubeshare/replicaset.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::kubeshare {
namespace {

SharePod MakeSharePod(const std::string& name, double request, double mem) {
  SharePod sp;
  sp.meta.name = name;
  sp.spec.gpu.gpu_request = request;
  sp.spec.gpu.gpu_limit = 1.0;
  sp.spec.gpu.gpu_mem = mem;
  return sp;
}

k8s::ClusterConfig SmallCluster() {
  k8s::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = 2;
  return cfg;
}

// ---- Hybrid pool policy (§4.4 "a hybrid strategy can also be designed") --

TEST(HybridPoolPolicy, KeepsUpToReserveIdleVgpus) {
  k8s::Cluster cluster(SmallCluster());
  KubeShareConfig cfg;
  cfg.pool_policy = PoolPolicy::kHybrid;
  cfg.hybrid_reserve = 1;
  KubeShare kubeshare(&cluster, cfg);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());

  // Two sharePods on two separate vGPUs.
  ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod("a", 0.8, 0.4)).ok());
  ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod("b", 0.8, 0.4)).ok());
  cluster.sim().RunUntil(Seconds(15));
  ASSERT_EQ(kubeshare.pool().size(), 2u);

  // Delete both: hybrid keeps exactly one idle vGPU warm.
  ASSERT_TRUE(kubeshare.sharepods().Delete("a").ok());
  ASSERT_TRUE(kubeshare.sharepods().Delete("b").ok());
  cluster.sim().RunUntil(Seconds(25));
  ASSERT_EQ(kubeshare.pool().size(), 1u);
  EXPECT_EQ(kubeshare.pool().List()[0]->state, VgpuState::kIdle);
  EXPECT_EQ(kubeshare.devmgr().vgpus_released(), 1u);

  // The next sharePod reuses the warm vGPU — no new acquisition.
  const auto created = kubeshare.devmgr().vgpus_created();
  ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod("c", 0.5, 0.4)).ok());
  cluster.sim().RunUntil(Seconds(35));
  EXPECT_EQ(kubeshare.sharepods().Get("c")->status.phase,
            SharePodPhase::kRunning);
  EXPECT_EQ(kubeshare.devmgr().vgpus_created(), created);
}

// ---- Memory over-commitment end to end -----------------------------------

TEST(MemoryOvercommit, SchedulerPacksBeyondPhysicalMemory) {
  k8s::ClusterConfig ccfg = SmallCluster();
  ccfg.oversub.enabled = true;
  k8s::Cluster cluster(ccfg);
  KubeShare kubeshare(&cluster);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());
  // 0.7 + 0.7 memory on one GPU: rejected without the extension, packed
  // with it (compute requests still fit: 0.4 + 0.4).
  ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod("a", 0.4, 0.7)).ok());
  ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod("b", 0.4, 0.7)).ok());
  cluster.sim().RunUntil(Seconds(15));
  EXPECT_EQ(kubeshare.sharepods().Get("a")->spec.gpu_id,
            kubeshare.sharepods().Get("b")->spec.gpu_id);
}

TEST(MemoryOvercommit, ClusterFactorBoundsTheScheduler) {
  // Only ClusterConfig::oversub is set: its factor bounds the scheduler's
  // per-device gpu_mem sum as it bounds the device library's allocations.
  for (const double factor : {0.0, 1.5}) {
    SCOPED_TRACE(factor);
    k8s::ClusterConfig ccfg = SmallCluster();
    ccfg.oversub.enabled = true;
    ccfg.oversub.swap.oversubscription_factor = factor;
    k8s::Cluster cluster(ccfg);
    KubeShare kubeshare(&cluster);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(kubeshare.Start().ok());
    for (const char* name : {"a", "b", "c"}) {
      ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod(name, 0.3, 0.7)).ok());
    }
    cluster.sim().RunUntil(Seconds(15));
    const auto gpu_of = [&](const char* name) {
      return kubeshare.sharepods().Get(name)->spec.gpu_id;
    };
    ASSERT_FALSE(gpu_of("a").empty());
    ASSERT_FALSE(gpu_of("c").empty());
    // Two pods (1.4 of device memory) fit under either bound.
    EXPECT_EQ(gpu_of("a"), gpu_of("b"));
    if (factor == 0.0) {
      // Unbounded: 2.1 of device memory still packs on one GPU.
      EXPECT_EQ(gpu_of("c"), gpu_of("a"));
    } else {
      // 2.1 > 1.5: the third goes to the other GPU.
      EXPECT_NE(gpu_of("c"), gpu_of("a"));
    }
  }
}

TEST(MemoryOvercommit, WithoutExtensionSuchPodsGetSeparateGpus) {
  k8s::Cluster cluster(SmallCluster());
  KubeShare kubeshare(&cluster);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());
  ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod("a", 0.4, 0.7)).ok());
  ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod("b", 0.4, 0.7)).ok());
  cluster.sim().RunUntil(Seconds(15));
  EXPECT_NE(kubeshare.sharepods().Get("a")->spec.gpu_id,
            kubeshare.sharepods().Get("b")->spec.gpu_id);
}

TEST(MemoryOvercommit, OverCommittedJobsRunSlowerButComplete) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;  // force sharing
  ccfg.oversub.enabled = true;
  ccfg.oversub.swap.link_bandwidth_bytes_per_s = 8e9;
  k8s::Cluster cluster(ccfg);
  KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());

  for (const char* name : {"a", "b"}) {
    workload::TrainingSpec spec;
    spec.steps = 100;
    spec.step_kernel = Millis(10);
    spec.model_bytes = 11ull << 30;  // 2 x 11 GB > 16 GB device
    host.ExpectJob(name, [spec] {
      return std::make_unique<workload::TrainingJob>(spec);
    });
    ASSERT_TRUE(kubeshare.CreateSharePod(MakeSharePod(name, 0.4, 0.75)).ok());
  }
  cluster.sim().RunUntil(Minutes(10));
  EXPECT_EQ(host.completed(), 2u);
  // Each of the 2x1s kernel streams alternates with multi-second page
  // migrations: completion takes far longer than the compute alone.
  const auto* a = host.RecordOf("a");
  EXPECT_GT(a->finished - a->started, Seconds(5));
}

// ---- Vertical elasticity (ResizeSharePod) ---------------------------------

class ResizeTest : public ::testing::Test {
 protected:
  ResizeTest() : cluster_(SmallCluster()), kubeshare_(&cluster_),
                 host_(&cluster_) {
    EXPECT_TRUE(cluster_.Start().ok());
    EXPECT_TRUE(kubeshare_.Start().ok());
  }

  void SubmitGreedy(const std::string& name, double request, double limit) {
    workload::TrainingSpec spec;
    spec.steps = 1'000'000;
    spec.step_kernel = Millis(10);
    host_.ExpectJob(name, [spec] {
      return std::make_unique<workload::TrainingJob>(spec);
    });
    SharePod sp = MakeSharePod(name, request, 0.2);
    sp.spec.gpu.gpu_limit = limit;
    ASSERT_TRUE(kubeshare_.CreateSharePod(sp).ok());
  }

  double UsageOf(const std::string& name) {
    const vgpu::FrontendHook* hook = host_.RunningHook(name);
    if (hook == nullptr) return -1.0;
    auto sp = kubeshare_.sharepods().Get(name);
    auto dev = kubeshare_.pool().Get(sp->spec.gpu_id);
    return cluster_.BackendForGpu(*dev->uuid)->UsageOf(hook->container());
  }

  k8s::Cluster cluster_;
  KubeShare kubeshare_;
  workload::WorkloadHost host_;
};

TEST_F(ResizeTest, RaisedLimitTakesEffectOnRunningContainer) {
  SubmitGreedy("job", 0.3, 0.4);
  cluster_.sim().RunUntil(Seconds(60));
  EXPECT_NEAR(UsageOf("job"), 0.4, 0.05);  // throttled at the old limit
  ASSERT_TRUE(kubeshare_.ResizeSharePod("job", 0.3, 0.8).ok());
  cluster_.sim().RunUntil(Seconds(120));
  EXPECT_NEAR(UsageOf("job"), 0.8, 0.05);  // new limit applied live
  auto sp = kubeshare_.sharepods().Get("job");
  EXPECT_DOUBLE_EQ(sp->spec.gpu.gpu_limit, 0.8);
  EXPECT_GE(cluster_.api().events().CountReason("Resized"), 1u);
}

TEST_F(ResizeTest, RaisedRequestRebalancesSharers) {
  SubmitGreedy("a", 0.3, 1.0);
  SubmitGreedy("b", 0.3, 1.0);
  cluster_.sim().RunUntil(Seconds(60));
  // Same GPU, equal requests: fair split.
  ASSERT_EQ(kubeshare_.sharepods().Get("a")->spec.gpu_id,
            kubeshare_.sharepods().Get("b")->spec.gpu_id);
  EXPECT_NEAR(UsageOf("a"), 0.5, 0.05);
  // Raise a's guarantee to 0.7: the backend must pin a at 0.7, b at 0.3.
  ASSERT_TRUE(kubeshare_.ResizeSharePod("a", 0.7, 1.0).ok());
  cluster_.sim().RunUntil(Seconds(180));
  EXPECT_NEAR(UsageOf("a"), 0.7, 0.05);
  EXPECT_NEAR(UsageOf("b"), 0.3, 0.05);
}

TEST_F(ResizeTest, GrowthBeyondResidualRejected) {
  SubmitGreedy("a", 0.5, 1.0);
  SubmitGreedy("b", 0.4, 1.0);
  cluster_.sim().RunUntil(Seconds(15));
  ASSERT_EQ(kubeshare_.sharepods().Get("a")->spec.gpu_id,
            kubeshare_.sharepods().Get("b")->spec.gpu_id);
  // 0.5 + 0.4 committed: raising a to 0.7 would over-commit.
  EXPECT_EQ(kubeshare_.ResizeSharePod("a", 0.7, 1.0).code(),
            StatusCode::kResourceExhausted);
  // Shrinking works and frees capacity for b.
  ASSERT_TRUE(kubeshare_.ResizeSharePod("a", 0.1, 0.3).ok());
  EXPECT_TRUE(kubeshare_.ResizeSharePod("b", 0.9, 1.0).ok());
}

TEST_F(ResizeTest, ErrorPaths) {
  EXPECT_EQ(kubeshare_.ResizeSharePod("ghost", 0.5, 1.0).code(),
            StatusCode::kNotFound);
  SubmitGreedy("a", 0.3, 1.0);
  cluster_.sim().RunUntil(Seconds(15));
  EXPECT_FALSE(kubeshare_.ResizeSharePod("a", 0.8, 0.5).ok());  // req > lim
}

// ---- Gang admission (SharePod groups) ------------------------------------

class GangTest : public ::testing::Test {
 protected:
  GangTest() : cluster_(SmallCluster()), kubeshare_(&cluster_) {
    EXPECT_TRUE(cluster_.Start().ok());
    EXPECT_TRUE(kubeshare_.Start().ok());
  }

  std::vector<SharePod> Workers(int n, double request,
                                const std::string& prefix = "w") {
    std::vector<SharePod> out;
    for (int i = 0; i < n; ++i) {
      SharePod sp = MakeSharePod(prefix + std::to_string(i), request, 0.1);
      sp.spec.locality.affinity = Label("gang-" + prefix);
      out.push_back(std::move(sp));
    }
    return out;
  }

  k8s::Cluster cluster_;
  KubeShare kubeshare_;
};

TEST_F(GangTest, FittingGroupIsAdmittedAndCoScheduled) {
  ASSERT_TRUE(kubeshare_.CreateSharePodGroup(Workers(4, 0.2)).ok());
  cluster_.sim().RunUntil(Seconds(15));
  const GpuId device = kubeshare_.sharepods().Get("w0")->spec.gpu_id;
  for (int i = 0; i < 4; ++i) {
    auto sp = kubeshare_.sharepods().Get("w" + std::to_string(i));
    EXPECT_EQ(sp->status.phase, SharePodPhase::kRunning);
    EXPECT_EQ(sp->spec.gpu_id, device);  // affinity kept the gang together
  }
}

TEST_F(GangTest, OversizedGroupIsRejectedAtomically) {
  // 4 workers at 0.3 with one affinity label: the 4th overflows the shared
  // device — nothing may be created.
  const Status s = kubeshare_.CreateSharePodGroup(Workers(4, 0.3));
  EXPECT_EQ(s.code(), StatusCode::kRejected);
  EXPECT_EQ(kubeshare_.sharepods().size(), 0u);
  EXPECT_EQ(kubeshare_.pool().size(), 0u);  // dry run left no residue
}

TEST_F(GangTest, GroupBeyondPhysicalSupplyIsUnavailable) {
  // Three exclusive tenants need three GPUs; the cluster has two.
  std::vector<SharePod> pods;
  for (int i = 0; i < 3; ++i) {
    SharePod sp = MakeSharePod("t" + std::to_string(i), 0.5, 0.1);
    sp.spec.locality.exclusion = Label("tenant-" + std::to_string(i));
    pods.push_back(std::move(sp));
  }
  const Status s = kubeshare_.CreateSharePodGroup(pods);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(kubeshare_.sharepods().size(), 0u);
}

TEST_F(GangTest, NoSupplyWhileSchedulerIsDown) {
  // The dry run reads KubeShare-Sched's free-GPU view, which a crashed
  // scheduler does not have: a group that needs a new vGPU waits for it.
  kubeshare_.sched().Crash();
  EXPECT_EQ(kubeshare_.CreateSharePodGroup(Workers(2, 0.2)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(kubeshare_.sharepods().size(), 0u);
  ASSERT_TRUE(kubeshare_.sched().Restart().ok());
  EXPECT_TRUE(kubeshare_.CreateSharePodGroup(Workers(2, 0.2)).ok());
}

TEST_F(GangTest, InvalidMembersRejected) {
  EXPECT_FALSE(kubeshare_.CreateSharePodGroup({}).ok());
  std::vector<SharePod> dup = Workers(1, 0.2);
  ASSERT_TRUE(kubeshare_.CreateSharePod(dup[0]).ok());
  EXPECT_EQ(kubeshare_.CreateSharePodGroup(Workers(1, 0.2)).code(),
            StatusCode::kAlreadyExists);
}

// ---- SharePodReplicaSet ---------------------------------------------------

class ReplicaSetTest : public ::testing::Test {
 protected:
  ReplicaSetTest() : cluster_(SmallCluster()), kubeshare_(&cluster_) {
    EXPECT_TRUE(cluster_.Start().ok());
    EXPECT_TRUE(kubeshare_.Start().ok());
  }

  SharePodReplicaSet::Spec MakeSpec(const std::string& name, int replicas) {
    SharePodReplicaSet::Spec spec;
    spec.name = name;
    spec.replicas = replicas;
    spec.template_spec.gpu.gpu_request = 0.3;
    spec.template_spec.gpu.gpu_limit = 0.8;
    spec.template_spec.gpu.gpu_mem = 0.3;
    return spec;
  }

  std::size_t RunningReplicas() {
    std::size_t n = 0;
    for (const SharePod& sp : kubeshare_.sharepods().List()) {
      if (sp.status.phase == SharePodPhase::kRunning) ++n;
    }
    return n;
  }

  k8s::Cluster cluster_;
  KubeShare kubeshare_;
};

TEST_F(ReplicaSetTest, MaintainsDesiredReplicas) {
  SharePodReplicaSet rs(&kubeshare_, MakeSpec("serve", 3));
  ASSERT_TRUE(rs.Start().ok());
  cluster_.sim().RunUntil(Seconds(15));
  EXPECT_EQ(rs.live(), 3u);
  EXPECT_EQ(RunningReplicas(), 3u);
}

TEST_F(ReplicaSetTest, ReplacesDeletedReplica) {
  SharePodReplicaSet rs(&kubeshare_, MakeSpec("serve", 2));
  ASSERT_TRUE(rs.Start().ok());
  cluster_.sim().RunUntil(Seconds(15));
  ASSERT_TRUE(kubeshare_.sharepods().Delete("serve-0").ok());
  cluster_.sim().RunUntil(Seconds(30));
  EXPECT_EQ(rs.live(), 2u);
  EXPECT_EQ(RunningReplicas(), 2u);
  EXPECT_EQ(rs.created_total(), 3u);  // 2 initial + 1 replacement
  EXPECT_FALSE(kubeshare_.sharepods().Contains("serve-0"));
  EXPECT_TRUE(kubeshare_.sharepods().Contains("serve-2"));
}

TEST_F(ReplicaSetTest, ScaleUpAndDown) {
  SharePodReplicaSet rs(&kubeshare_, MakeSpec("serve", 1));
  ASSERT_TRUE(rs.Start().ok());
  cluster_.sim().RunUntil(Seconds(15));
  rs.Scale(4);
  cluster_.sim().RunUntil(Seconds(30));
  EXPECT_EQ(rs.live(), 4u);
  EXPECT_EQ(RunningReplicas(), 4u);
  rs.Scale(2);
  cluster_.sim().RunUntil(Seconds(45));
  EXPECT_EQ(rs.live(), 2u);
  EXPECT_EQ(RunningReplicas(), 2u);
  rs.Scale(-5);  // clamped to zero
  cluster_.sim().RunUntil(Seconds(60));
  EXPECT_EQ(rs.live(), 0u);
}

TEST_F(ReplicaSetTest, ForeignSharePodsAreIgnored) {
  SharePodReplicaSet rs(&kubeshare_, MakeSpec("serve", 1));
  ASSERT_TRUE(rs.Start().ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("other", 0.2, 0.2)).ok());
  cluster_.sim().RunUntil(Seconds(15));
  EXPECT_EQ(rs.live(), 1u);
  ASSERT_TRUE(kubeshare_.sharepods().Delete("other").ok());
  cluster_.sim().RunUntil(Seconds(25));
  EXPECT_EQ(rs.created_total(), 1u);  // never reacted to "other"
}

TEST_F(ReplicaSetTest, InvalidSpecsRejected) {
  SharePodReplicaSet rs(&kubeshare_, MakeSpec("bad", -1));
  EXPECT_FALSE(rs.Start().ok());
}

TEST_F(ReplicaSetTest, ReplicaHookSeesEveryReplica) {
  SharePodReplicaSet rs(&kubeshare_, MakeSpec("serve", 2));
  std::vector<std::string> names;
  rs.SetReplicaHook([&](const std::string& name) { names.push_back(name); });
  ASSERT_TRUE(rs.Start().ok());
  cluster_.sim().RunUntil(Seconds(15));
  ASSERT_TRUE(kubeshare_.sharepods().Delete("serve-1").ok());
  cluster_.sim().RunUntil(Seconds(30));
  EXPECT_EQ(names.size(), 3u);
  EXPECT_EQ(names[2], "serve-2");
}

}  // namespace
}  // namespace ks::kubeshare
