#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/recovery.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks {
namespace {

/// Fig-8-style churn with a node crash in the middle: inference sharePods
/// arriving while node-1 dies (taking its containers, kubelet and token
/// daemon) and later comes back. The recovery paths under test:
/// eviction -> DevMgr reclaim/requeue -> re-schedule -> relaunch.
struct ScenarioResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t restarts = 0;
  std::size_t vgpus_left = 0;
  std::size_t nonterminal_pods = 0;
  metrics::RecoveryMetrics recovery;
  chaos::ChaosStats chaos;
  std::string timeline;  // full event log, for byte-identical comparison
};

constexpr int kJobs = 16;

ScenarioResult RunCrashScenario(std::uint64_t seed) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.gpus_per_node = 2;
  ccfg.node_detection = Seconds(1);
  ccfg.pod_eviction_timeout = Seconds(2);
  ccfg.component_resync = Seconds(1);
  k8s::Cluster cluster(ccfg);

  kubeshare::KubeShareConfig kcfg;
  kcfg.reconcile_period = Seconds(1);
  kubeshare::KubeShare kubeshare(&cluster, kcfg);
  workload::WorkloadHost host(&cluster);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());

  // Staggered arrivals: 16 jobs, one every 300 ms, ~2.5 s of work each at
  // demand 0.4. gpu_request 0.45 packs two per GPU across 8 GPUs.
  for (int i = 0; i < kJobs; ++i) {
    const std::string name = "job-" + std::to_string(i);
    cluster.sim().ScheduleAfter(Millis(300) * i, [&, name, i] {
      workload::InferenceSpec spec =
          workload::InferenceSpec::ForDemand(0.4, 100, Millis(10));
      spec.seed = seed + static_cast<std::uint64_t>(i);
      host.ExpectJob(name, [spec] {
        return std::make_unique<workload::InferenceJob>(spec);
      });
      kubeshare::SharePod sp;
      sp.meta.name = name;
      sp.spec.gpu.gpu_request = 0.45;
      sp.spec.gpu.gpu_limit = 1.0;
      sp.spec.gpu.gpu_mem = 0.3;
      EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
    });
  }

  // Scripted plan: node-1 dies at 6 s — after image pulls and vGPU
  // acquisition, while its first wave of containers (started ~5 s, ~2.5 s
  // of work) is mid-run — and comes back at 14 s.
  chaos::FaultPlan plan;
  chaos::Fault crash;
  crash.at = Seconds(6);
  crash.kind = chaos::FaultKind::kNodeCrash;
  crash.node = "node-1";
  crash.duration = Seconds(8);  // auto-recovery at 14 s
  plan.faults.push_back(crash);
  chaos::FaultInjector injector(&cluster, plan);
  EXPECT_TRUE(injector.Arm().ok());

  // Drive until every job record is closed (or a generous deadline).
  const Time deadline = Minutes(5);
  while (cluster.sim().Now() < deadline) {
    cluster.sim().RunUntil(cluster.sim().Now() + Seconds(1));
    if (host.completed() + host.failed() ==
        static_cast<std::size_t>(kJobs)) {
      break;
    }
  }
  // Let teardown (vGPU releases, pod deletes) settle.
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(5));

  ScenarioResult out;
  out.completed = host.completed();
  out.failed = host.failed();
  out.restarts = host.restarts();
  out.vgpus_left = kubeshare.pool().size();
  for (const k8s::Pod& p : cluster.api().pods().List()) {
    if (!p.terminal()) ++out.nonterminal_pods;
  }
  out.recovery = metrics::CollectRecoveryMetrics(cluster, &kubeshare);
  out.chaos = injector.stats();
  std::ostringstream timeline;
  cluster.api().events().Print(timeline);
  out.timeline = timeline.str();
  return out;
}

TEST(ChaosRecovery, NodeCrashMidChurnEveryJobCompletes) {
  const ScenarioResult r = RunCrashScenario(2026);
  SCOPED_TRACE(r.timeline);
  // Every job eventually completes: the ones on node-1 are requeued and
  // relaunched elsewhere (or after recovery), not lost.
  EXPECT_EQ(r.completed, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.restarts, 0u);  // the crash really did interrupt containers
  // No leaked vGPUs or bindings: on-demand policy returns every GPU.
  EXPECT_EQ(r.vgpus_left, 0u);
  EXPECT_EQ(r.nonterminal_pods, 0u);
  // The recovery paths actually fired.
  EXPECT_GE(r.chaos.node_crashes, 1u);
  EXPECT_GE(r.recovery.node_not_ready_transitions, 1u);
  EXPECT_GE(r.recovery.sharepods_requeued, 1u);
  EXPECT_GE(r.recovery.vgpus_reclaimed, 1u);
  EXPECT_GE(r.recovery.backend_restarts, 1u);
  EXPECT_EQ(r.chaos.recoveries_timed_out, 0u);
}

TEST(ChaosRecovery, SameSeedSameTimelineAndMetrics) {
  const ScenarioResult a = RunCrashScenario(2026);
  const ScenarioResult b = RunCrashScenario(2026);
  // Byte-identical event timeline: fault injection and every recovery
  // step land at the same simulated instants in the same order.
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.recovery.pods_evicted, b.recovery.pods_evicted);
  EXPECT_EQ(a.recovery.sharepods_requeued, b.recovery.sharepods_requeued);
  EXPECT_EQ(a.recovery.vgpus_reclaimed, b.recovery.vgpus_reclaimed);
  EXPECT_EQ(a.chaos.total_recovery_time, b.chaos.total_recovery_time);
}

}  // namespace
}  // namespace ks
