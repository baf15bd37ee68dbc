#include <gtest/gtest.h>

#include "kubeshare/kubeshare.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::kubeshare {
namespace {

SharePod MakeSharePod(const std::string& name, double request,
                      double mem = 0.3) {
  SharePod sp;
  sp.meta.name = name;
  sp.spec.gpu.gpu_request = request;
  sp.spec.gpu.gpu_limit = 1.0;
  sp.spec.gpu.gpu_mem = mem;
  return sp;
}

class DevMgrEdgeTest : public ::testing::Test {
 protected:
  static k8s::ClusterConfig Config() {
    k8s::ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.gpus_per_node = 2;
    return cfg;
  }

  DevMgrEdgeTest() : cluster_(Config()), kubeshare_(&cluster_) {
    EXPECT_TRUE(cluster_.Start().ok());
    EXPECT_TRUE(kubeshare_.Start().ok());
  }

  k8s::Cluster cluster_;
  KubeShare kubeshare_;
};

TEST_F(DevMgrEdgeTest, SharePodDeletedDuringAcquisitionCleansUp) {
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("fleeting", 0.5)).ok());
  // Delete while the acquisition pod is still starting (< ~2 s).
  cluster_.sim().RunUntil(Millis(500));
  ASSERT_EQ(kubeshare_.pool().size(), 1u);
  ASSERT_TRUE(kubeshare_.sharepods().Delete("fleeting").ok());
  cluster_.sim().RunUntil(Seconds(20));
  // The vGPU went idle on detach and was released on-demand.
  EXPECT_EQ(kubeshare_.pool().size(), 0u);
  // No workload pod survives; the acquisition pod was deleted too.
  for (const k8s::Pod& p : cluster_.api().pods().List()) {
    EXPECT_TRUE(p.terminal()) << p.meta.name;
  }
}

TEST_F(DevMgrEdgeTest, AcquisitionFailureFailsSharePod) {
  // Fill both physical GPUs with native pods scheduled via kube-scheduler,
  // then pin a sharePod to this node: the free-GPU estimate says 0, so the
  // scheduler keeps it pending rather than creating a doomed vGPU.
  for (int i = 0; i < 2; ++i) {
    k8s::Pod native;
    native.meta.name = "native-" + std::to_string(i);
    native.spec.requests.Set(k8s::kResourceNvidiaGpu, 1);
    ASSERT_TRUE(cluster_.api().pods().Create(native).ok());
  }
  cluster_.sim().RunUntil(Seconds(10));
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("starved", 0.5)).ok());
  cluster_.sim().RunUntil(Seconds(20));
  EXPECT_EQ(kubeshare_.sharepods().Get("starved")->status.phase,
            SharePodPhase::kPending);
  EXPECT_GE(kubeshare_.sched().retry_count(), 1u);
  // Free a GPU: the sharePod must eventually run.
  ASSERT_TRUE(cluster_.api().pods().Delete("native-0").ok());
  cluster_.sim().RunUntil(Seconds(60));
  EXPECT_EQ(kubeshare_.sharepods().Get("starved")->status.phase,
            SharePodPhase::kRunning);
}

TEST_F(DevMgrEdgeTest, SecondSharePodWaitsForSameVgpuActivation) {
  // Two sharePods scheduled onto the same (still-creating) vGPU: both must
  // launch from the single acquisition.
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("a", 0.3)).ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("b", 0.3)).ok());
  cluster_.sim().RunUntil(Seconds(15));
  EXPECT_EQ(kubeshare_.devmgr().vgpus_created(), 1u);
  EXPECT_EQ(kubeshare_.sharepods().Get("a")->status.phase,
            SharePodPhase::kRunning);
  EXPECT_EQ(kubeshare_.sharepods().Get("b")->status.phase,
            SharePodPhase::kRunning);
}

TEST_F(DevMgrEdgeTest, PinnedGpuIdOvercommitRejected) {
  SharePod a = MakeSharePod("a", 0.7);
  a.spec.gpu_id = GpuId("pin");
  a.spec.node_name = "node-0";
  SharePod b = MakeSharePod("b", 0.7);
  b.spec.gpu_id = GpuId("pin");
  b.spec.node_name = "node-0";
  ASSERT_TRUE(kubeshare_.CreateSharePod(a).ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(b).ok());
  cluster_.sim().RunUntil(Seconds(15));
  EXPECT_EQ(kubeshare_.sharepods().Get("a")->status.phase,
            SharePodPhase::kRunning);
  EXPECT_EQ(kubeshare_.sharepods().Get("b")->status.phase,
            SharePodPhase::kRejected);
}

TEST_F(DevMgrEdgeTest, PinnedExclusiveSharePodOntoSharedDeviceRejected) {
  // A user-pinned GPUID bypasses Algorithm 1's exclusion filter, so the
  // pool itself must refuse an exclusive sharePod on a device an
  // unlabelled tenant already occupies.
  SharePod a = MakeSharePod("a", 0.3);
  a.spec.gpu_id = GpuId("pin");
  a.spec.node_name = "node-0";
  SharePod b = MakeSharePod("b", 0.3);
  b.spec.gpu_id = GpuId("pin");
  b.spec.node_name = "node-0";
  b.spec.locality.exclusion = Label("X");
  ASSERT_TRUE(kubeshare_.CreateSharePod(a).ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(b).ok());
  cluster_.sim().RunUntil(Seconds(15));
  EXPECT_EQ(kubeshare_.sharepods().Get("a")->status.phase,
            SharePodPhase::kRunning);
  EXPECT_EQ(kubeshare_.sharepods().Get("b")->status.phase,
            SharePodPhase::kRejected);
  auto dev = kubeshare_.pool().Get(GpuId("pin"));
  ASSERT_TRUE(dev.ok());
  EXPECT_FALSE(dev->exclusion.has_value());
  EXPECT_TRUE(kubeshare_.pool().CheckIndexInvariants().ok());
}

TEST_F(DevMgrEdgeTest, RebuildReleasesVgpuOrphanedWhileDown) {
  // A sharePod deleted while DevMgr is down leaves its vGPU with nobody
  // attached. The rebuild applies the on-demand policy to it, as if its
  // last detach had just happened: the physical GPU goes back to
  // Kubernetes.
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("gone", 0.3)).ok());
  cluster_.sim().RunUntil(Seconds(15));
  ASSERT_EQ(kubeshare_.sharepods().Get("gone")->status.phase,
            SharePodPhase::kRunning);
  kubeshare_.devmgr().Crash();
  ASSERT_TRUE(kubeshare_.sharepods().Delete("gone").ok());
  cluster_.sim().RunUntil(Seconds(20));
  ASSERT_TRUE(kubeshare_.devmgr().Restart().ok());
  EXPECT_EQ(kubeshare_.devmgr().rebuilt_vgpus(), 1u);
  EXPECT_EQ(kubeshare_.devmgr().vgpus_released(), 1u);
  EXPECT_EQ(kubeshare_.pool().size(), 0u);
  cluster_.sim().RunUntil(Seconds(30));
  // Both the orphaned workload pod and the acquisition pod are gone.
  for (const k8s::Pod& p : cluster_.api().pods().List()) {
    EXPECT_TRUE(p.terminal()) << p.meta.name;
  }
}

TEST_F(DevMgrEdgeTest, ReserveVgpuProducesIdleEntry) {
  auto id = kubeshare_.devmgr().ReserveVgpu("node-0");
  ASSERT_TRUE(id.ok());
  cluster_.sim().RunUntil(Seconds(10));
  auto dev = kubeshare_.pool().Get(*id);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(dev->state, VgpuState::kIdle);
  EXPECT_TRUE(dev->uuid.has_value());
}

TEST_F(DevMgrEdgeTest, WorkloadPodFailureMarksSharePodFailed) {
  workload::WorkloadHost host(&cluster_);
  workload::TrainingSpec oom;
  oom.model_bytes = 10ull << 30;  // over the 30% quota below
  host.ExpectJob("doomed", [oom] {
    return std::make_unique<workload::TrainingJob>(oom);
  });
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("doomed", 0.3, 0.3)).ok());
  cluster_.sim().RunUntil(Seconds(20));
  EXPECT_EQ(kubeshare_.sharepods().Get("doomed")->status.phase,
            SharePodPhase::kFailed);
  // Failure released the placement: the pool drained (on-demand).
  EXPECT_EQ(kubeshare_.pool().size(), 0u);
}

TEST_F(DevMgrEdgeTest, ExternallyDeletedAcquisitionPodFailsSharePods) {
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("a", 0.3)).ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("b", 0.3)).ok());
  cluster_.sim().RunUntil(Seconds(15));
  ASSERT_EQ(kubeshare_.sharepods().Get("a")->status.phase,
            SharePodPhase::kRunning);
  // An operator (or an eviction) deletes the pod holding the physical GPU.
  ASSERT_TRUE(cluster_.api().pods().Delete("kubeshare-vgpu-1").ok());
  cluster_.sim().RunUntil(Seconds(25));
  EXPECT_EQ(kubeshare_.sharepods().Get("a")->status.phase,
            SharePodPhase::kFailed);
  EXPECT_EQ(kubeshare_.sharepods().Get("b")->status.phase,
            SharePodPhase::kFailed);
  EXPECT_EQ(kubeshare_.pool().size(), 0u);
  EXPECT_GE(cluster_.api().events().CountReason("Lost"), 1u);
  // The system still serves new sharePods with a fresh acquisition.
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("c", 0.3)).ok());
  cluster_.sim().RunUntil(Seconds(45));
  EXPECT_EQ(kubeshare_.sharepods().Get("c")->status.phase,
            SharePodPhase::kRunning);
}

TEST_F(DevMgrEdgeTest, DoubleStartRejected) {
  EXPECT_FALSE(kubeshare_.Start().ok());
  EXPECT_FALSE(kubeshare_.sched().Start().ok());
  EXPECT_FALSE(kubeshare_.devmgr().Start().ok());
}

}  // namespace
}  // namespace ks::kubeshare
