// PeriodicSampler on the shared sim::TickHub, pinned by explicit series:
// samples land at exact multiples of the period from Start(), instruments
// of one period share one engine event per instant, and a read-only
// sampler leaves a full KubeShare run (with a DevMgr crash-and-rebuild in
// the middle) unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "gpu/nvml.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/sampler.hpp"
#include "sim/simulation.hpp"
#include "sim/tick_hub.hpp"
#include "support/golden.hpp"
#include "workload/generator.hpp"
#include "workload/host.hpp"

namespace ks::metrics {
namespace {

using Series = std::vector<PeriodicSampler::Sample>;

void ExpectSeriesEqual(const Series& actual, const Series& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].at, expected[i].at) << "sample " << i;
    EXPECT_EQ(actual[i].value, expected[i].value) << "sample " << i;
  }
}

/// A value that changes strictly between sample instants, sampled on the
/// cluster's 1 ms grid by one sampler started at 0 and one started late.
TEST(SamplerPull, SamplesFollowScriptedSeries) {
  sim::Simulation sim;
  sim::TickHub hub(&sim, Millis(1));
  double value = 0.0;
  // value = 1/(k+1) from 50 ms + k*100 ms on.
  for (int k = 0; k < 6; ++k) {
    sim.ScheduleAt(Millis(50 + 100 * k),
                   [&value, k] { value = 1.0 / (1.0 + k); });
  }

  PeriodicSampler early(&hub, Millis(100), [&value] { return value; });
  PeriodicSampler late(&hub, Millis(150), [&value] { return value; });
  early.Start();
  sim.ScheduleAt(Millis(230), [&late] { late.Start(); });
  sim.RunUntil(Millis(650));
  early.Stop();
  late.Stop();

  ExpectSeriesEqual(early.series(), {{Millis(100), 1.0},
                                     {Millis(200), 1.0 / 2},
                                     {Millis(300), 1.0 / 3},
                                     {Millis(400), 1.0 / 4},
                                     {Millis(500), 1.0 / 5},
                                     {Millis(600), 1.0 / 6}});
  ExpectSeriesEqual(late.series(),
                    {{Millis(380), 1.0 / 4}, {Millis(530), 1.0 / 5}});
  EXPECT_EQ(early.MaxValue(), 1.0);
  EXPECT_DOUBLE_EQ(early.MeanValue(),
                   (1.0 + 1.0 / 2 + 1.0 / 3 + 1.0 / 4 + 1.0 / 5 + 1.0 / 6) /
                       6);
}

/// The point of the hub: N same-period instruments share ONE engine event
/// per instant instead of keeping N private ones.
TEST(SamplerPull, EqualPeriodSamplersCoalesceOntoOneEngineEvent) {
  sim::Simulation sim;
  sim::TickHub hub(&sim, Millis(1));
  double value = 0.0;
  PeriodicSampler a(&hub, Millis(10), [&value] { return value; });
  PeriodicSampler b(&hub, Millis(10), [&value] { return value; });
  PeriodicSampler c(&hub, Millis(10), [&value] { return value; });
  a.Start();
  b.Start();
  c.Start();
  sim.RunUntil(Millis(105));
  a.Stop();
  b.Stop();
  c.Stop();

  ASSERT_EQ(a.series().size(), 10u);
  EXPECT_EQ(hub.fires(), 30u);   // 3 instruments x 10 instants
  EXPECT_EQ(hub.ticks(), 10u);   // but only 10 engine events
}

/// Stopping one instrument must not disturb its co-tenants on the hub.
TEST(SamplerPull, StopUnsubscribesWithoutDisturbingOthers) {
  sim::Simulation sim;
  sim::TickHub hub(&sim, Millis(1));
  double value = 0.0;
  PeriodicSampler a(&hub, Millis(10), [&value] { return value; });
  PeriodicSampler b(&hub, Millis(10), [&value] { return value; });
  a.Start();
  b.Start();
  sim.RunUntil(Millis(55));
  a.Stop();
  sim.RunUntil(Millis(105));
  b.Stop();
  EXPECT_EQ(a.series().size(), 5u);
  EXPECT_EQ(b.series().size(), 10u);
}

// ---------------------------------------------------------------------------
// Full stack: one KubeShare run with a DevMgr crash mid-flight, watched by
// zero or two samplers on the cluster's shared tick, which also carries the
// NVML poll. Probes are read-only, so every kernel lifetime, token
// transition, NVML sample and completion must be the same with and without
// them.

struct ClusterRun {
  std::string digests;  // golden::ClusterDigests summary
  std::size_t completed = 0;
  std::uint64_t devmgr_crashes = 0;
  Series running_pods;
  double running_pods_max = 0.0;
  Series co_tenant;
  std::uint64_t hub_fires = 0;
  std::uint64_t hub_ticks = 0;
};

ClusterRun RunCluster(bool watched) {
  golden::ClusterDigests traces;
  ClusterRun result;
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.gpus_per_node = 2;
  k8s::Cluster cluster(ccfg);
  traces.Attach(cluster);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  workload::WorkloadConfig wcfg;
  wcfg.total_jobs = 16;
  wcfg.mean_interarrival = Seconds(1.0);
  wcfg.demand_mean = 0.35;
  wcfg.demand_stddev = 0.15;
  wcfg.job_duration = Seconds(8);
  wcfg.seed = 4242;
  workload::WorkloadDriver driver(&cluster, &host,
                                  workload::WorkloadDriver::Mode::kKubeShare,
                                  &kubeshare, wcfg);

  chaos::FaultPlan plan;
  chaos::Fault crash;
  crash.at = Seconds(10);
  crash.kind = chaos::FaultKind::kDevMgrCrash;
  crash.duration = Seconds(2);
  plan.faults.push_back(crash);
  chaos::FaultInjector injector(&cluster, plan);
  injector.SetKubeShare(&kubeshare);

  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());
  EXPECT_TRUE(injector.Arm().ok());
  cluster.nvml().Start();
  driver.Start();

  auto probe = [&cluster] {
    double running = 0.0;
    cluster.api().pods().ForEach([&running](const k8s::Pod& pod) {
      if (pod.status.phase == k8s::PodPhase::kRunning) running += 1.0;
    });
    return running;
  };
  // 1003 ms: on the hub's 1 ms grid but off the second-aligned cadences of
  // the cluster components, so no cluster event shares a sample's instant
  // (first collision at ~1003 s, far past the horizon).
  const Duration period = Millis(1003);
  PeriodicSampler sampler(cluster.tick_hub(), period, probe);
  PeriodicSampler co_tenant(cluster.tick_hub(), period, probe);
  if (watched) {
    sampler.Start();
    co_tenant.Start();
  }

  cluster.sim().RunUntil(Seconds(40));
  sampler.Stop();
  co_tenant.Stop();
  cluster.nvml().Stop();

  traces.AddNvml(cluster);
  result.digests = traces.str();
  result.completed = host.completed();
  result.devmgr_crashes = injector.stats().devmgr_crashes;
  result.running_pods = sampler.series();
  result.running_pods_max = sampler.MaxValue();
  result.co_tenant = co_tenant.series();
  result.hub_fires = cluster.tick_hub()->fires();
  result.hub_ticks = cluster.tick_hub()->ticks();
  return result;
}

TEST(SamplerPull, ReadOnlySamplerLeavesClusterRunUnchanged) {
  const ClusterRun bare = RunCluster(/*watched=*/false);
  const ClusterRun watched = RunCluster(/*watched=*/true);

  ASSERT_EQ(bare.devmgr_crashes, 1u);
  ASSERT_EQ(watched.devmgr_crashes, 1u);
  EXPECT_GT(bare.completed, 0u);
  EXPECT_EQ(watched.completed, bare.completed);
  EXPECT_EQ(watched.digests, bare.digests);

  // 39 samples at k * 1003 ms up to the 40 s horizon, and the co-tenant
  // saw the same cluster through the same ticks...
  ASSERT_EQ(watched.running_pods.size(), 39u);
  EXPECT_EQ(watched.running_pods.back().at, Millis(39 * 1003));
  EXPECT_GT(watched.running_pods_max, 0.0);
  ExpectSeriesEqual(watched.co_tenant, watched.running_pods);
  // ...at one engine event per instant for both instruments, never on an
  // NVML tick.
  EXPECT_EQ(watched.hub_ticks - bare.hub_ticks, 39u);
  EXPECT_EQ(watched.hub_fires - bare.hub_fires, 2 * 39u);
}

}  // namespace
}  // namespace ks::metrics
