#include <gtest/gtest.h>

#include "kubeshare/kubeshare.hpp"
#include "support/churn.hpp"
#include "workload/host.hpp"

namespace ks {
namespace {

/// Cluster-level churn (support/churn.hpp's plan): random sharePod
/// submissions interleaved with random deletions, while global invariants
/// are checked after every round:
///  - no vGPU is ever over-committed by requests;
///  - the vGPU count never exceeds the physical supply;
///  - kubelet CPU accounting never exceeds capacity;
///  - after the storm drains, every GPU is back in Kubernetes' hands.
struct ChurnParam {
  std::uint64_t seed;
};

class ClusterChurnStress : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(ClusterChurnStress, InvariantsHoldUnderRandomChurn) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.gpus_per_node = 2;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());

  const int physical_gpus = ccfg.nodes * ccfg.gpus_per_node;
  churn::ChurnPlan plan(GetParam().seed, &cluster, &kubeshare, &host);

  auto check_invariants = [&] {
    for (const kubeshare::VgpuInfo* dev : kubeshare.pool().List()) {
      ASSERT_LE(dev->used_util, 1.0 + 1e-9) << dev->id;
      ASSERT_LE(dev->used_mem, 1.0 + 1e-9) << dev->id;
    }
    ASSERT_LE(kubeshare.pool().size(),
              static_cast<std::size_t>(physical_gpus));
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      const auto& kubelet = *cluster.node(n).kubelet;
      ASSERT_LE(kubelet.allocated().Get(k8s::kResourceCpu),
                cluster.config().cpu_millicores);
    }
  };

  plan.Run(check_invariants);

  // Drain: delete the survivors and let everything settle.
  plan.DeleteSurvivors();
  cluster.sim().RunUntil(cluster.sim().Now() + Minutes(3));
  check_invariants();
  EXPECT_EQ(kubeshare.pool().size(), 0u);  // on-demand: all GPUs returned
  // Every managed pod is gone or terminal.
  for (const k8s::Pod& p : cluster.api().pods().List()) {
    EXPECT_TRUE(p.terminal()) << p.meta.name;
  }
  // A native pod can now take any whole GPU.
  k8s::Pod native;
  native.meta.name = "native-after-storm";
  native.spec.requests.Set(k8s::kResourceNvidiaGpu, 2);
  ASSERT_TRUE(cluster.api().pods().Create(native).ok());
  cluster.sim().RunUntil(cluster.sim().Now() + Minutes(1));
  EXPECT_EQ(cluster.api().pods().Get("native-after-storm")->status.phase,
            k8s::PodPhase::kRunning);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterChurnStress,
                         ::testing::Values(ChurnParam{21}, ChurnParam{42},
                                           ChurnParam{63}, ChurnParam{84}),
                         [](const ::testing::TestParamInfo<ChurnParam>& i) {
                           return "seed" + std::to_string(i.param.seed);
                         });

}  // namespace
}  // namespace ks
