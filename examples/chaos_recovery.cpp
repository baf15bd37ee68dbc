// Chaos recovery: a node crash in the middle of a training run.
//
// Six training sharePods spread over a 3-node cluster; at t=10s node-1 is
// hard-crashed (containers, kubelet and token daemon die together) and
// comes back 15 s later. Watch the recovery chain in the event timeline:
// node-controller detection -> eviction ("NodeLost") -> DevMgr reclaiming
// the dead node's vGPUs and requeuing its sharePods -> re-scheduling onto
// the survivors -> every job finishing anyway.
//
//   $ ./examples/chaos_recovery

#include <cstdio>
#include <iostream>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/recovery.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

using namespace ks;

int main() {
  k8s::ClusterConfig config;
  config.nodes = 3;
  config.gpus_per_node = 2;
  config.node_detection = Seconds(2);
  config.pod_eviction_timeout = Seconds(3);
  config.component_resync = Seconds(2);
  k8s::Cluster cluster(config);

  kubeshare::KubeShareConfig kcfg;
  kcfg.reconcile_period = Seconds(2);
  kubeshare::KubeShare kubeshare(&cluster, kcfg);
  workload::WorkloadHost host(&cluster);
  if (!cluster.Start().ok() || !kubeshare.Start().ok()) return 1;

  constexpr int kJobs = 6;
  for (int i = 0; i < kJobs; ++i) {
    const std::string name = "train-" + std::to_string(i);
    workload::TrainingSpec spec;
    spec.steps = 1500;
    spec.step_kernel = Millis(10);
    spec.model_bytes = 1ull << 30;
    host.ExpectJob(name, [spec] {
      return std::make_unique<workload::TrainingJob>(spec);
    });
    kubeshare::SharePod sp;
    sp.meta.name = name;
    sp.spec.gpu.gpu_request = 0.4;
    sp.spec.gpu.gpu_limit = 1.0;
    sp.spec.gpu.gpu_mem = 0.3;
    if (!kubeshare.CreateSharePod(sp).ok()) return 1;
  }

  // The scripted fault: node-1 dies mid-training, back 15 s later.
  chaos::FaultPlan plan;
  chaos::Fault crash;
  crash.at = Seconds(10);
  crash.kind = chaos::FaultKind::kNodeCrash;
  crash.node = "node-1";
  crash.duration = Seconds(15);
  plan.faults.push_back(crash);
  chaos::FaultInjector injector(&cluster, plan);
  if (!injector.Arm().ok()) return 1;

  const Time deadline = Minutes(10);
  while (cluster.sim().Now() < deadline &&
         host.completed() + host.failed() < kJobs) {
    cluster.sim().RunUntil(cluster.sim().Now() + Seconds(1));
  }
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(5));

  std::printf("event timeline (tail):\n");
  cluster.api().events().Print(std::cout, 40);

  const metrics::RecoveryMetrics rec =
      metrics::CollectRecoveryMetrics(cluster, &kubeshare);
  std::printf("\nrecovery summary:\n");
  std::printf("  jobs completed / failed   : %zu / %zu\n", host.completed(),
              host.failed());
  std::printf("  container restarts        : %zu\n", host.restarts());
  std::printf("  vGPUs reclaimed           : %llu\n",
              static_cast<unsigned long long>(rec.vgpus_reclaimed));
  std::printf("  sharePods requeued        : %llu\n",
              static_cast<unsigned long long>(rec.sharepods_requeued));
  std::printf("  token daemon restarts     : %llu\n",
              static_cast<unsigned long long>(rec.backend_restarts));
  std::printf("  mean time to drain node   : %s\n",
              FormatTime(injector.stats().MeanTimeToRecovery()).c_str());
  std::printf("\nthe crash cost time, not jobs: everything that was running "
              "on node-1\nwas requeued and finished elsewhere or after the "
              "node returned.\n");
  return host.completed() == kJobs ? 0 : 1;
}
