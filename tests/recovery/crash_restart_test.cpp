#include <gtest/gtest.h>

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

/// Controller crash/restart scenario: two waves of inference sharePods on
/// a 4-node / 8-GPU cluster under the reservation pool policy (so the
/// pool still has content to compare at quiescence). The crashed variant
/// kills BOTH KubeShare controllers at 7 s — DevMgr mid-lifecycle with
/// every wave-1 workload running, Sched with whatever its queue held —
/// and restarts them at 9 s; wave 2 arrives only after the rebuild, so
/// its placements exercise the reconstructed pool.
struct RestartResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  bool invariants_ok = false;
  std::string pool_dump;
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuilt_vgpus = 0;
  std::uint64_t sched_crashes = 0;
  metrics::RecoveryMetrics recovery;
  std::string timeline;
};

constexpr int kWaveJobs = 6;

RestartResult RunRestartScenario(bool crash, std::uint64_t seed = 2026,
                                 bool spatial = false) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.gpus_per_node = 2;
  ccfg.component_resync = Seconds(1);
  if (spatial) {
    ccfg.spatial.enabled = true;
    ccfg.spatial.sm_groups = 7;
  }
  k8s::Cluster cluster(ccfg);

  kubeshare::KubeShareConfig kcfg;
  kcfg.pool_policy = kubeshare::PoolPolicy::kReservation;
  kcfg.reconcile_period = Seconds(1);
  kubeshare::KubeShare kubeshare(&cluster, kcfg);
  workload::WorkloadHost host(&cluster);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());

  auto submit_wave = [&](int wave, Duration start) {
    for (int i = 0; i < kWaveJobs; ++i) {
      const std::string name =
          "job-" + std::to_string(wave) + "-" + std::to_string(i);
      cluster.sim().ScheduleAfter(start + Millis(200) * i, [&, name, wave,
                                                           i] {
        // ~10 s of wall-clock work at demand 0.4 for wave 1, so every
        // wave-1 container is still mid-run across the crash window.
        workload::InferenceSpec spec =
            workload::InferenceSpec::ForDemand(0.4, 400, Millis(10));
        spec.seed = seed + static_cast<std::uint64_t>(wave * 100 + i);
        host.ExpectJob(name, [spec] {
          return std::make_unique<workload::InferenceJob>(spec);
        });
        kubeshare::SharePod sp;
        sp.meta.name = name;
        sp.spec.gpu.gpu_request = 0.45;
        sp.spec.gpu.gpu_limit = 1.0;
        sp.spec.gpu.gpu_mem = 0.3;
        if (spatial) {
          // Mixed 2/3-group claims: two per device, at distinct offsets,
          // so the rebuilt pool has real slice placements to reproduce.
          sp.spec.gpu.slice_groups = (i % 2 == 0) ? 3 : 2;
        }
        EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
      });
    }
  };
  submit_wave(1, Seconds(0));
  submit_wave(2, Seconds(25));

  if (crash) {
    cluster.sim().ScheduleAfter(Seconds(7), [&] {
      kubeshare.devmgr().Crash();
      kubeshare.sched().Crash();
    });
    cluster.sim().ScheduleAfter(Seconds(9), [&] {
      EXPECT_TRUE(kubeshare.devmgr().Restart().ok());
      EXPECT_TRUE(kubeshare.sched().Restart().ok());
    });
  }

  const Time deadline = Minutes(5);
  const auto total = static_cast<std::size_t>(2 * kWaveJobs);
  while (cluster.sim().Now() < deadline) {
    cluster.sim().RunUntil(cluster.sim().Now() + Seconds(1));
    if (host.completed() + host.failed() == total) break;
  }
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(5));

  RestartResult out;
  out.completed = host.completed();
  out.failed = host.failed();
  out.invariants_ok = kubeshare.pool().CheckIndexInvariants().ok();
  out.pool_dump = kubeshare.pool().DebugString();
  out.rebuilds = kubeshare.devmgr().rebuilds();
  out.rebuilt_vgpus = kubeshare.devmgr().rebuilt_vgpus();
  out.sched_crashes = kubeshare.sched().crashes();
  out.recovery = metrics::CollectRecoveryMetrics(cluster, &kubeshare);
  std::ostringstream timeline;
  cluster.api().events().Print(timeline);
  out.timeline = timeline.str();
  return out;
}

TEST(CrashRestart, BothControllersCrashEveryJobStillCompletes) {
  const RestartResult r = RunRestartScenario(/*crash=*/true);
  SCOPED_TRACE(r.timeline);
  EXPECT_EQ(r.completed, static_cast<std::size_t>(2 * kWaveJobs));
  EXPECT_EQ(r.failed, 0u);
  // The crash really tore the controllers down and DevMgr really rebuilt.
  EXPECT_EQ(r.rebuilds, 1u);
  EXPECT_EQ(r.sched_crashes, 1u);
  EXPECT_GT(r.rebuilt_vgpus, 0u);
  EXPECT_TRUE(r.invariants_ok);
  EXPECT_GE(r.recovery.controller_crashes, 2u);
  EXPECT_GE(r.recovery.controller_rebuilds, 1u);
}

TEST(CrashRestart, RebuiltPoolByteEqualToUncrashedRun) {
  const RestartResult crashed = RunRestartScenario(/*crash=*/true);
  const RestartResult clean = RunRestartScenario(/*crash=*/false);
  SCOPED_TRACE(crashed.timeline);
  // Same seed, same workload: once both runs quiesce, the pool rebuilt
  // from apiserver state is byte-identical to the pool that never died —
  // same GPUIDs, nodes, UUID bindings, lifecycle states and reservations.
  EXPECT_TRUE(crashed.invariants_ok);
  EXPECT_TRUE(clean.invariants_ok);
  EXPECT_FALSE(clean.pool_dump.empty());  // reservation policy keeps vGPUs
  EXPECT_EQ(crashed.pool_dump, clean.pool_dump);
  EXPECT_EQ(crashed.completed, clean.completed);
  EXPECT_EQ(crashed.failed, clean.failed);
}

TEST(CrashRestart, SpatialRebuiltPoolRestoresSlicePlacementsByteEqual) {
  // Spatial variant of the byte-equality oracle: the crashed DevMgr must
  // re-attach every recovered sharePod at the exact slice offset the
  // scheduler persisted in its spec — DebugString includes each device's
  // slice picture, so a relocated or leaked slice cannot pass.
  const RestartResult crashed =
      RunRestartScenario(/*crash=*/true, 2026, /*spatial=*/true);
  const RestartResult clean =
      RunRestartScenario(/*crash=*/false, 2026, /*spatial=*/true);
  SCOPED_TRACE(crashed.timeline);
  EXPECT_TRUE(crashed.invariants_ok);
  EXPECT_TRUE(clean.invariants_ok);
  EXPECT_FALSE(clean.pool_dump.empty());
  EXPECT_NE(clean.pool_dump.find("slices="), std::string::npos)
      << clean.pool_dump;
  EXPECT_EQ(crashed.pool_dump, clean.pool_dump);
  EXPECT_EQ(crashed.completed, clean.completed);
  EXPECT_EQ(crashed.failed, clean.failed);
  EXPECT_EQ(crashed.rebuilds, 1u);
  EXPECT_GT(crashed.rebuilt_vgpus, 0u);
}

TEST(CrashRestart, CrashScenarioIsDeterministic) {
  const RestartResult a = RunRestartScenario(/*crash=*/true);
  const RestartResult b = RunRestartScenario(/*crash=*/true);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.pool_dump, b.pool_dump);
  EXPECT_EQ(a.recovery.update_conflicts, b.recovery.update_conflicts);
}

/// kDropWatchEvent coverage: the apiserver silently loses pod watch
/// notifications; the component_resync relist plus DevMgr's reconcile
/// pass must repair whatever was stranded, and running extra reconcile
/// passes at quiescence must change nothing (idempotency).
TEST(WatchDropRecovery, DroppedEventsConvergeViaResync) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.gpus_per_node = 2;
  ccfg.component_resync = Seconds(1);
  k8s::Cluster cluster(ccfg);

  kubeshare::KubeShareConfig kcfg;
  kcfg.reconcile_period = Seconds(1);
  kubeshare::KubeShare kubeshare(&cluster, kcfg);
  workload::WorkloadHost host(&cluster);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());

  constexpr int kJobs = 12;
  for (int i = 0; i < kJobs; ++i) {
    const std::string name = "job-" + std::to_string(i);
    cluster.sim().ScheduleAfter(Millis(300) * i, [&, name, i] {
      workload::InferenceSpec spec =
          workload::InferenceSpec::ForDemand(0.4, 100, Millis(10));
      spec.seed = 99 + static_cast<std::uint64_t>(i);
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

  // Lose bursts of pod watch notifications across the whole lifecycle:
  // during launch, mid-run, and around the first completions.
  chaos::FaultPlan plan;
  for (const double at : {1.0, 2.5, 4.0}) {
    chaos::Fault f;
    f.at = Seconds(at);
    f.kind = chaos::FaultKind::kDropWatchEvent;
    f.drop_count = 4;
    plan.faults.push_back(f);
  }
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
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(5));

  std::ostringstream timeline;
  cluster.api().events().Print(timeline);
  SCOPED_TRACE(timeline.str());
  EXPECT_EQ(host.completed(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(host.failed(), 0u);
  const auto recovery = metrics::CollectRecoveryMetrics(cluster, &kubeshare);
  // Bursts injected while the store was quiet stay pending, so assert on
  // the notifications verifiably lost, not the full 12 requested.
  EXPECT_GE(recovery.watch_events_dropped, 8u);
  EXPECT_GT(recovery.reconcile_passes, 0u);
  // Idempotency: once converged, further resync passes are pure no-ops.
  const std::string pool_before = kubeshare.pool().DebugString();
  const std::uint64_t requeued_before =
      kubeshare.devmgr().sharepods_requeued();
  kubeshare.devmgr().ReconcileOnce();
  kubeshare.devmgr().ReconcileOnce();
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(2));
  EXPECT_EQ(kubeshare.pool().DebugString(), pool_before);
  EXPECT_EQ(kubeshare.devmgr().sharepods_requeued(), requeued_before);
  EXPECT_TRUE(kubeshare.pool().CheckIndexInvariants().ok());
}

}  // namespace
}  // namespace ks
