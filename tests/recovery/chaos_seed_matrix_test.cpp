#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/recovery.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks {
namespace {

/// CI runs this suite once per seed in its fixed matrix (11 23 37 41 53)
/// via KS_CHAOS_SEED; locally, unset, it exercises the first of them.
std::uint64_t ChaosSeed() {
  if (const char* env = std::getenv("KS_CHAOS_SEED")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 11;
}

/// Randomized fault soup over the full vocabulary — node crashes, daemon
/// restarts, OOM kills, dropped watch events, latency spikes, plus this
/// PR's controller crashes — against the churn workload. Whatever the
/// seed draws, the cluster must converge: every job completes, nothing
/// leaks, the rebuilt pool passes its invariants.
TEST(ChaosSeedMatrix, RandomPlanConvergesForSeed) {
  const std::uint64_t seed = ChaosSeed();
  SCOPED_TRACE("KS_CHAOS_SEED=" + std::to_string(seed));

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
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());

  constexpr int kJobs = 16;
  for (int i = 0; i < kJobs; ++i) {
    const std::string name = "job-" + std::to_string(i);
    cluster.sim().ScheduleAfter(Millis(400) * i, [&, name, i] {
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

  chaos::RandomPlanOptions opts;
  opts.seed = seed;
  opts.start = Seconds(2);
  opts.horizon = Seconds(30);
  opts.fault_count = 10;
  for (int n = 0; n < ccfg.nodes; ++n) {
    opts.nodes.push_back("node-" + std::to_string(n));
  }
  opts.outage_min = Seconds(4);
  opts.outage_max = Seconds(10);
  opts.devmgr_crash_weight = 1.0;
  opts.sched_crash_weight = 1.0;
  const chaos::FaultPlan plan = chaos::FaultPlan::Random(opts);
  SCOPED_TRACE(plan.ToString());
  chaos::FaultInjector injector(&cluster, plan);
  injector.SetKubeShare(&kubeshare);
  ASSERT_TRUE(injector.Arm().ok());

  const Time deadline = Minutes(5);
  while (cluster.sim().Now() < deadline) {
    cluster.sim().RunUntil(cluster.sim().Now() + Seconds(1));
    if (host.completed() + host.failed() ==
        static_cast<std::size_t>(kJobs)) {
      break;
    }
  }
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(10));

  std::ostringstream timeline;
  cluster.api().events().Print(timeline);
  SCOPED_TRACE(timeline.str());

  EXPECT_EQ(host.completed(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(host.failed(), 0u);
  EXPECT_TRUE(kubeshare.pool().CheckIndexInvariants().ok());
  const auto& stats = injector.stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_EQ(stats.recoveries_timed_out, 0u);
  // Nothing non-terminal left behind.
  std::size_t nonterminal = 0;
  for (const k8s::Pod& p : cluster.api().pods().List()) {
    if (!p.terminal()) ++nonterminal;
  }
  EXPECT_EQ(nonterminal, 0u);
}

/// Adversarial variant of the matrix: the random soup now includes the
/// kTenant* attacks (plus two scripted ones so every seed provably turns
/// at least one tenant hostile), against a cluster with isolation
/// enforcement dialed to zero tolerance (first violation clamps AND
/// evicts). Hostile tenants wedge by design — an overstayed hook's
/// submissions are dropped at the fence and its job never finishes on its
/// own — so convergence here means: every polite job completes, every
/// attacked tenant is promptly evicted to a terminal failed sharePod, and
/// nothing is left non-terminal.
TEST(ChaosSeedMatrix, AdversarialPlanConvergesForSeed) {
  const std::uint64_t seed = ChaosSeed();
  SCOPED_TRACE("KS_CHAOS_SEED=" + std::to_string(seed));

  k8s::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.gpus_per_node = 2;
  ccfg.node_detection = Seconds(1);
  ccfg.pod_eviction_timeout = Seconds(2);
  ccfg.component_resync = Seconds(1);
  ccfg.backend.enforcement.enabled = true;
  ccfg.backend.enforcement.clamp_threshold = 1;
  ccfg.backend.enforcement.evict_threshold = 1;
  k8s::Cluster cluster(ccfg);

  kubeshare::KubeShareConfig kcfg;
  kcfg.reconcile_period = Seconds(1);
  kubeshare::KubeShare kubeshare(&cluster, kcfg);
  workload::WorkloadHost host(&cluster);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());

  constexpr int kJobs = 16;
  for (int i = 0; i < kJobs; ++i) {
    const std::string name = "job-" + std::to_string(i);
    cluster.sim().ScheduleAfter(Millis(400) * i, [&, name, i] {
      // Long jobs (~4 s of device time) keep tenants running across the
      // whole attack window, so hostile faults always find a victim.
      workload::InferenceSpec spec =
          workload::InferenceSpec::ForDemand(0.45, 400, Millis(10));
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

  chaos::RandomPlanOptions opts;
  opts.seed = seed;
  opts.start = Seconds(6);  // past the ~5 s pod-start pipeline
  opts.horizon = Seconds(20);
  opts.fault_count = 8;
  for (int n = 0; n < ccfg.nodes; ++n) {
    opts.nodes.push_back("node-" + std::to_string(n));
  }
  opts.outage_min = Seconds(4);
  opts.outage_max = Seconds(8);
  opts.tenant_overstay_weight = 1.0;
  opts.tenant_flood_weight = 1.0;
  opts.tenant_probe_weight = 0.5;
  opts.tenant_spoof_weight = 0.5;
  chaos::FaultPlan plan = chaos::FaultPlan::Random(opts);
  {
    // Two scripted attacks on top of the soup: whatever the seed draws,
    // this seed's run turns at least one tenant hostile while jobs are
    // provably running.
    chaos::Fault overstay;
    overstay.at = Seconds(8);
    overstay.kind = chaos::FaultKind::kTenantTokenOverstay;
    overstay.duration = Seconds(5);
    plan.faults.push_back(overstay);
    chaos::Fault flood;
    flood.at = Seconds(8) + Millis(500);
    flood.kind = chaos::FaultKind::kTenantKernelFlood;
    flood.duration = Seconds(5);
    plan.faults.push_back(flood);
  }
  SCOPED_TRACE(plan.ToString());
  chaos::FaultInjector injector(&cluster, plan);
  injector.SetKubeShare(&kubeshare);
  injector.SetWorkloadHost(&host);
  ASSERT_TRUE(injector.Arm().ok());

  // A provisional failure (node crash, OOM kill) requeues and restarts, so
  // completed+failed can touch kJobs and then drop back while the retry
  // runs — quiescence additionally needs every pod terminal.
  const auto all_terminal = [&] {
    for (const k8s::Pod& p : cluster.api().pods().List()) {
      if (!p.terminal()) return false;
    }
    return true;
  };
  const Time deadline = Minutes(5);
  while (cluster.sim().Now() < deadline) {
    cluster.sim().RunUntil(cluster.sim().Now() + Seconds(1));
    if (host.completed() + host.failed() ==
            static_cast<std::size_t>(kJobs) &&
        all_terminal()) {
      break;
    }
  }
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(10));

  std::ostringstream timeline;
  cluster.api().events().Print(timeline);
  SCOPED_TRACE(timeline.str());

  // Convergence under attack: every job reaches a terminal state — polite
  // ones complete, attacked ones are evicted (failed) by the enforcer.
  EXPECT_EQ(host.completed() + host.failed(),
            static_cast<std::size_t>(kJobs));
  EXPECT_TRUE(kubeshare.pool().CheckIndexInvariants().ok());
  const auto& stats = injector.stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_EQ(stats.recoveries_timed_out, 0u);
  EXPECT_GT(stats.tenant_overstays + stats.tenant_floods +
                stats.tenant_probes + stats.tenant_spoofs,
            0u)
      << "no tenant ever turned hostile — the adversarial matrix is vacuous";
  // The scripted overstay guarantees at least one violation is attributed
  // and, at evict_threshold=1, at least one eviction.
  std::uint64_t violations = 0;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    violations += cluster.node(n).token_backend->violations_total();
  }
  EXPECT_GT(violations, 0u);
  EXPECT_GT(kubeshare.devmgr().tenants_evicted(), 0u);
  // Nothing non-terminal left behind.
  std::size_t nonterminal = 0;
  for (const k8s::Pod& p : cluster.api().pods().List()) {
    if (!p.terminal()) ++nonterminal;
  }
  EXPECT_EQ(nonterminal, 0u);
}

/// The matrix is deterministic per seed: the same seed replays the same
/// plan to the same timeline, so a CI failure reproduces locally with
/// KS_CHAOS_SEED=<seed>.
TEST(ChaosSeedMatrix, SameSeedSamePlan) {
  chaos::RandomPlanOptions opts;
  opts.seed = ChaosSeed();
  opts.fault_count = 12;
  opts.nodes = {"node-0", "node-1"};
  opts.devmgr_crash_weight = 1.0;
  opts.sched_crash_weight = 1.0;
  opts.leader_partition_weight = 0.5;
  const chaos::FaultPlan a = chaos::FaultPlan::Random(opts);
  const chaos::FaultPlan b = chaos::FaultPlan::Random(opts);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.faults.size(), 12u);
}

}  // namespace
}  // namespace ks
