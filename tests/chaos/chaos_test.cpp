#include <gtest/gtest.h>

#include <string>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"

namespace ks::chaos {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: seeded generation.

TEST(FaultPlan, SameOptionsProduceIdenticalPlan) {
  RandomPlanOptions opt;
  opt.seed = 99;
  opt.fault_count = 20;
  opt.nodes = {"node-0", "node-1", "node-2"};
  const FaultPlan a = FaultPlan::Random(opt);
  const FaultPlan b = FaultPlan::Random(opt);
  ASSERT_EQ(a.faults.size(), 20u);
  EXPECT_EQ(a.ToString(), b.ToString());

  opt.seed = 100;
  const FaultPlan c = FaultPlan::Random(opt);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultPlan, FaultsSortedAndWithinWindow) {
  RandomPlanOptions opt;
  opt.seed = 7;
  opt.start = Seconds(2);
  opt.horizon = Seconds(30);
  opt.fault_count = 25;
  opt.nodes = {"node-0"};
  const FaultPlan plan = FaultPlan::Random(opt);
  Time prev{0};
  for (const Fault& f : plan.faults) {
    EXPECT_GE(f.at, opt.start);
    EXPECT_LT(f.at, opt.horizon);
    EXPECT_GE(f.at, prev);  // sorted by injection time
    prev = f.at;
  }
}

TEST(FaultPlan, NodeScopedKindsRequireNodes) {
  RandomPlanOptions opt;
  opt.seed = 3;
  opt.fault_count = 30;
  opt.nodes = {};  // nothing to crash
  const FaultPlan plan = FaultPlan::Random(opt);
  for (const Fault& f : plan.faults) {
    EXPECT_NE(f.kind, FaultKind::kNodeCrash) << f.ToString();
    EXPECT_NE(f.kind, FaultKind::kTokenDaemonRestart) << f.ToString();
  }
}

// ---------------------------------------------------------------------------
// FaultInjector: each fault kind against a live cluster.

k8s::Pod PlainPod(const std::string& name, const std::string& node = "") {
  k8s::Pod pod;
  pod.meta.name = name;
  pod.spec.requests.Set(k8s::kResourceCpu, 1000);
  if (!node.empty()) {
    pod.spec.node_selector["kubernetes.io/hostname"] = node;
  }
  return pod;
}

void RunUntilPodPhase(k8s::Cluster& cluster, const std::string& pod,
                      k8s::PodPhase phase, Duration limit = Seconds(30)) {
  const Time deadline = cluster.sim().Now() + limit;
  while (cluster.sim().Now() < deadline) {
    auto p = cluster.api().pods().Get(pod);
    if (p.ok() && p->status.phase == phase) return;
    cluster.sim().RunUntil(cluster.sim().Now() + Millis(100));
  }
  FAIL() << "pod " << pod << " never reached " << k8s::PodPhaseName(phase);
}

TEST(FaultInjector, NodeCrashDetectionEvictionAndRecovery) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.gpus_per_node = 1;
  ccfg.node_detection = Seconds(1);
  ccfg.pod_eviction_timeout = Seconds(2);
  k8s::Cluster cluster(ccfg);
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.api().pods().Create(PlainPod("victim", "node-0")).ok());
  RunUntilPodPhase(cluster, "victim", k8s::PodPhase::kRunning);

  const Time t_crash = cluster.sim().Now() + Seconds(1);
  FaultPlan plan;
  Fault crash;
  crash.at = t_crash;
  crash.kind = FaultKind::kNodeCrash;
  crash.node = "node-0";
  crash.duration = Seconds(6);  // auto-recovery
  plan.faults.push_back(crash);
  FaultInjector injector(&cluster, plan);
  ASSERT_TRUE(injector.Arm().ok());

  // Before the detection latency elapses the Node object still reads Ready.
  cluster.sim().RunUntil(t_crash + Millis(500));
  EXPECT_TRUE(cluster.NodeCrashed("node-0"));
  EXPECT_TRUE(cluster.api().nodes().Get("node-0")->ready);

  // Detection: NotReady after node_detection.
  cluster.sim().RunUntil(t_crash + Millis(1500));
  EXPECT_FALSE(cluster.api().nodes().Get("node-0")->ready);
  EXPECT_EQ(cluster.node_controller().not_ready_transitions(), 1u);

  // Eviction: a further pod_eviction_timeout later the pod is failed with
  // the NodeLost message.
  cluster.sim().RunUntil(t_crash + Millis(3500));
  auto victim = cluster.api().pods().Get("victim");
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(victim->status.phase, k8s::PodPhase::kFailed);
  EXPECT_EQ(victim->status.message, "NodeLost");
  EXPECT_GE(cluster.node_controller().evictions(), 1u);

  // Auto-recovery at t_crash + 6 s; Ready again after detection latency.
  cluster.sim().RunUntil(t_crash + Millis(7500));
  EXPECT_FALSE(cluster.NodeCrashed("node-0"));
  EXPECT_TRUE(cluster.api().nodes().Get("node-0")->ready);
  EXPECT_EQ(injector.stats().node_crashes, 1u);
  EXPECT_EQ(injector.stats().node_recoveries, 1u);
}

class ReattachClient : public vgpu::TokenClient {
 public:
  void OnTokenGranted(Time) override {}
  void OnTokenExpired() override {}
  void OnBackendRestart() override { ++restarted; }
  int restarted = 0;
};

TEST(FaultInjector, DaemonRestartReattachesFrontends) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  k8s::Cluster cluster(ccfg);
  ASSERT_TRUE(cluster.Start().ok());

  vgpu::TokenBackend& backend = *cluster.node(0).token_backend;
  ReattachClient client;
  vgpu::ResourceSpec spec;
  spec.gpu_request = 0.5;
  ASSERT_TRUE(backend
                  .RegisterContainer(ContainerId("c1"),
                                     cluster.node(0).gpus[0]->uuid(), spec,
                                     &client)
                  .ok());

  FaultPlan plan;
  Fault restart;
  restart.at = cluster.sim().Now() + Seconds(1);
  restart.kind = FaultKind::kTokenDaemonRestart;
  restart.node = "node-0";
  plan.faults.push_back(restart);
  Fault bogus;  // unknown node: skipped, counted, not fatal
  bogus.at = restart.at;
  bogus.kind = FaultKind::kTokenDaemonRestart;
  bogus.node = "node-99";
  plan.faults.push_back(bogus);
  FaultInjector injector(&cluster, plan);
  ASSERT_TRUE(injector.Arm().ok());

  // Past the restart downtime the daemon has rebuilt its state and told
  // every surviving frontend to drop its token and re-request.
  cluster.sim().RunUntil(restart.at + Seconds(1));
  EXPECT_EQ(backend.restarts(), 1u);
  EXPECT_EQ(backend.reattached(), 1u);
  EXPECT_EQ(client.restarted, 1);
  EXPECT_EQ(injector.stats().daemon_restarts, 1u);
  EXPECT_EQ(injector.stats().faults_skipped, 1u);
}

TEST(FaultInjector, LatencySpikeSetsAndRestoresWatchLatency) {
  k8s::Cluster cluster(k8s::ClusterConfig{.nodes = 1, .gpus_per_node = 1});
  ASSERT_TRUE(cluster.Start().ok());
  const Duration before = cluster.api().pods().notify_latency();

  FaultPlan plan;
  Fault spike;
  spike.at = Seconds(1);
  spike.kind = FaultKind::kApiLatencySpike;
  spike.latency = Millis(250);
  spike.duration = Seconds(2);
  plan.faults.push_back(spike);
  FaultInjector injector(&cluster, plan);
  ASSERT_TRUE(injector.Arm().ok());

  cluster.sim().RunUntil(Millis(1500));
  EXPECT_EQ(cluster.api().pods().notify_latency(), Millis(250));
  EXPECT_EQ(cluster.api().nodes().notify_latency(), Millis(250));

  cluster.sim().RunUntil(Seconds(4));
  EXPECT_EQ(cluster.api().pods().notify_latency(), before);
  EXPECT_EQ(cluster.api().nodes().notify_latency(), before);
  EXPECT_EQ(cluster.api().events().CountReason("LatencyRestored"), 1u);
}

TEST(ChaosInjector, OverlappingLatencySpikesRestoreBaseline) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  k8s::Cluster cluster(ccfg);
  ASSERT_TRUE(cluster.Start().ok());
  const Duration before = cluster.api().pods().notify_latency();
  const Duration nodes_before = cluster.api().nodes().notify_latency();

  // 250 ms over [1 s, 3 s), then 400 ms over [2 s, 4 s).
  FaultPlan plan;
  for (const int i : {0, 1}) {
    Fault spike;
    spike.at = Seconds(1 + i);
    spike.kind = FaultKind::kApiLatencySpike;
    spike.latency = i == 0 ? Millis(250) : Millis(400);
    spike.duration = Seconds(2);
    plan.faults.push_back(spike);
  }
  FaultInjector injector(&cluster, plan);
  ASSERT_TRUE(injector.Arm().ok());

  cluster.sim().RunUntil(Millis(1500));
  EXPECT_EQ(cluster.api().pods().notify_latency(), Millis(250));
  // The latest spike holds while they overlap, also after the first ends.
  cluster.sim().RunUntil(Millis(3500));
  EXPECT_EQ(cluster.api().pods().notify_latency(), Millis(400));
  EXPECT_EQ(cluster.api().nodes().notify_latency(), Millis(400));
  EXPECT_EQ(cluster.api().events().CountReason("LatencyRestored"), 0u);

  // The last one's end restores the latency from before the first.
  cluster.sim().RunUntil(Seconds(5));
  EXPECT_EQ(cluster.api().pods().notify_latency(), before);
  EXPECT_EQ(cluster.api().nodes().notify_latency(), nodes_before);
  EXPECT_EQ(cluster.api().events().CountReason("LatencyRestored"), 1u);
  EXPECT_EQ(injector.stats().latency_spikes, 2u);
}

TEST(ChaosInjector, SchedCrashWhileDownIsSkipped) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());

  // Down over [1 s, 6 s); the second crash, at 2 s for 1 s, lands inside
  // that outage.
  FaultPlan plan;
  for (const int i : {0, 1}) {
    Fault crash;
    crash.at = Seconds(1 + i);
    crash.kind = FaultKind::kSchedCrash;
    crash.duration = i == 0 ? Seconds(5) : Seconds(1);
    plan.faults.push_back(crash);
  }
  FaultInjector injector(&cluster, plan);
  injector.SetKubeShare(&kubeshare);
  ASSERT_TRUE(injector.Arm().ok());

  cluster.sim().RunUntil(Millis(2500));
  kubeshare::SharePod sp;
  sp.meta.name = "waiting";
  sp.spec.gpu.gpu_request = 0.3;
  sp.spec.gpu.gpu_limit = 1.0;
  sp.spec.gpu.gpu_mem = 0.2;
  ASSERT_TRUE(kubeshare.CreateSharePod(sp).ok());

  // Still inside the first outage: nothing brought the scheduler back.
  cluster.sim().RunUntil(Seconds(5));
  EXPECT_FALSE(kubeshare.sched().running());
  EXPECT_FALSE(kubeshare.sharepods().Get("waiting")->scheduled());

  cluster.sim().RunUntil(Seconds(10));
  EXPECT_TRUE(kubeshare.sched().running());
  EXPECT_TRUE(kubeshare.sharepods().Get("waiting")->scheduled());
  EXPECT_EQ(injector.stats().sched_crashes, 1u);
  EXPECT_EQ(kubeshare.sched().crashes(), 1u);
  EXPECT_EQ(injector.stats().faults_skipped, 1u);
  EXPECT_EQ(injector.stats().sched_recoveries_measured, 1u);
  std::size_t restarts = 0;
  bool skipped = false;
  for (const k8s::ClusterEvent& e : cluster.api().events().events()) {
    if (e.object == "kubeshare-sched" && e.reason == "Restarted") {
      ++restarts;
      EXPECT_EQ(e.message, "OK");
    }
    if (e.reason == "FaultSkipped") {
      skipped = e.message == "SchedCrash: KubeShare-Sched already down";
    }
  }
  EXPECT_EQ(restarts, 1u);
  EXPECT_TRUE(skipped);
}

// A dropped pod-Added notification strands the pod: the scheduler (unbound
// pod) or the kubelet (pre-bound pod) never hears about it. The periodic
// component resync is the repair path.

TEST(FaultInjector, DroppedAddRepairedBySchedulerResync) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  ccfg.component_resync = Millis(500);
  k8s::Cluster cluster(ccfg);
  ASSERT_TRUE(cluster.Start().ok());

  cluster.api().pods().DropEvents(1);
  ASSERT_TRUE(cluster.api().pods().Create(PlainPod("stranded")).ok());
  EXPECT_EQ(cluster.api().pods().dropped_events(), 1u);

  RunUntilPodPhase(cluster, "stranded", k8s::PodPhase::kRunning);
  EXPECT_TRUE(cluster.api().pods().Get("stranded")->scheduled());
}

TEST(FaultInjector, DroppedAddRepairedByKubeletResync) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  ccfg.component_resync = Millis(500);
  k8s::Cluster cluster(ccfg);
  ASSERT_TRUE(cluster.Start().ok());

  // Pre-bound pod (the way DevMgr creates workload pods): only the kubelet
  // acts on it, and the dropped Added leaves it Pending forever without
  // the resync.
  k8s::Pod pod = PlainPod("bound");
  pod.status.node_name = "node-0";
  cluster.api().pods().DropEvents(1);
  ASSERT_TRUE(cluster.api().pods().Create(pod).ok());

  RunUntilPodPhase(cluster, "bound", k8s::PodPhase::kRunning);
}

// A dropped Modified notification makes DevMgr miss a workload pod's
// terminal transition; reconcile pass 2 reads the pod state directly and
// repairs the sharePod record.

TEST(FaultInjector, DroppedTerminalTransitionRepairedByReconcile) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.gpus_per_node = 1;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShareConfig kcfg;
  kcfg.reconcile_period = Millis(500);
  kubeshare::KubeShare kubeshare(&cluster, kcfg);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());

  kubeshare::SharePod sp;
  sp.meta.name = "sp";
  sp.spec.gpu.gpu_request = 0.5;
  sp.spec.gpu.gpu_mem = 0.5;
  ASSERT_TRUE(kubeshare.CreateSharePod(sp).ok());

  const Time deadline = Seconds(60);
  while (cluster.sim().Now() < deadline) {
    auto cur = kubeshare.sharepods().Get("sp");
    if (cur.ok() && cur->status.phase == kubeshare::SharePodPhase::kRunning) {
      break;
    }
    cluster.sim().RunUntil(cluster.sim().Now() + Millis(100));
  }
  auto running = kubeshare.sharepods().Get("sp");
  ASSERT_TRUE(running.ok());
  ASSERT_EQ(running->status.phase, kubeshare::SharePodPhase::kRunning);

  // Lose the Succeeded transition's watch notification.
  const std::string wp = running->status.workload_pod;
  cluster.api().pods().DropEvents(1);
  ASSERT_TRUE(
      cluster.api().SetPodPhase(wp, k8s::PodPhase::kSucceeded).ok());

  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(2));
  auto done = kubeshare.sharepods().Get("sp");
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->status.phase, kubeshare::SharePodPhase::kSucceeded);
  EXPECT_GE(kubeshare.devmgr().reconcile_passes(), 1u);
}

}  // namespace
}  // namespace ks::chaos
