// Differential tests for memory oversubscription (ROADMAP item 2).
//
// Three oracle pairs are pinned here:
//   1. Oversubscription enabled at factor 1.0 with a working set that
//      fits must leave the cluster's kernel, token, and NVML utilization
//      traces byte-equal to the feature-off system — even while chaos
//      restarts the token daemon and crashes the DevMgr mid-run. (NVML
//      mem_used is excluded from this pair only: over-commitment mode
//      host-backs allocations through the SwapManager instead of the
//      device allocator, a pre-existing design choice, so the device's
//      own allocation gauge legitimately reads zero.)
//   2. BackendConfig::tq enabled with no memory pressure must be
//      byte-equal to tq disabled: GrantQuotaFor substitutes the
//      exclusive quantum only on devices the thrash detector engaged,
//      and with zero swap traffic it must never engage.
//   3. A swap-heavy cluster (factor 2.0, every hand-off migrates pages
//      over the shared link) must reproduce the traces, migration count
//      and pool state recorded in tests/golden/device.golden from the
//      per-kernel reference engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "common/rng.hpp"
#include "gpu/nvml.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/swap.hpp"
#include "support/golden.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::vgpu {
namespace {

struct OversubRun {
  /// Kernel, token and NVML gpu_util digests plus completions.
  std::string traces;
  /// NVML mem_used digest, kept apart (see file header).
  std::string nvml_mem;
  std::string pool_dump;
  std::size_t completed = 0;
  std::uint64_t events = 0;
  std::uint64_t migrations = 0;
  std::uint64_t tq_engagements = 0;
};

struct RunOptions {
  bool oversub = false;
  double factor = 1.0;
  bool tq = false;
  std::uint64_t seed = 1;
  /// Scripted kTokenDaemonRestart + kDevMgrCrash mid-run.
  bool chaos = false;
  int nodes = 2;
  int gpus_per_node = 2;
  int tenants = 6;
  /// Per-tenant model as a fraction of one device's memory.
  double model_frac = 0.25;
  double gpu_mem = 0.3;
  Time horizon = Seconds(60);
};

OversubRun RunOversubCluster(const RunOptions& opt) {
  OversubRun run;
  golden::ClusterDigests traces;
  golden::TraceDigest nvml_util;
  golden::TraceDigest nvml_mem;
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = opt.nodes;
    ccfg.gpus_per_node = opt.gpus_per_node;
    ccfg.oversub.enabled = opt.oversub;
    ccfg.oversub.swap.oversubscription_factor = opt.factor;
    ccfg.backend.tq.enabled = opt.tq;
    k8s::Cluster cluster(ccfg);
    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);
    traces.Attach(cluster);

    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());
    cluster.nvml().Start();

    const auto capacity =
        static_cast<double>(cluster.config().gpu_spec.memory_bytes);
    Rng rng(opt.seed);
    for (int i = 0; i < opt.tenants; ++i) {
      const std::string name = "tenant-" + std::to_string(i);
      workload::PhasedTrainingSpec spec;
      spec.epochs = 2;
      spec.steps_per_epoch = static_cast<int>(rng.UniformInt(40, 80));
      spec.step_kernel = Millis(rng.UniformInt(5, 15));
      spec.io_per_epoch = Millis(300);
      spec.model_bytes =
          static_cast<std::uint64_t>(opt.model_frac * capacity);
      host.ExpectJob(name, [spec] {
        return std::make_unique<workload::PhasedTrainingJob>(spec);
      });
      kubeshare::SharePod sp;
      sp.meta.name = name;
      sp.spec.gpu.gpu_request = 0.3;
      sp.spec.gpu.gpu_limit = 1.0;
      sp.spec.gpu.gpu_mem = opt.gpu_mem;
      EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
    }

    chaos::FaultPlan plan;
    if (opt.chaos) {
      chaos::Fault daemon;
      daemon.at = Seconds(8);
      daemon.kind = chaos::FaultKind::kTokenDaemonRestart;
      daemon.node = "node-0";
      daemon.duration = Seconds(2);
      plan.faults.push_back(daemon);
      chaos::Fault devmgr;
      devmgr.at = Seconds(14);
      devmgr.kind = chaos::FaultKind::kDevMgrCrash;
      devmgr.duration = Seconds(3);
      plan.faults.push_back(devmgr);
    }
    chaos::FaultInjector injector(&cluster, plan);
    injector.SetKubeShare(&kubeshare);
    if (opt.chaos) {
      EXPECT_TRUE(injector.Arm().ok()) << "chaos plan failed to arm";
    }

    cluster.sim().RunUntil(opt.horizon);
    cluster.nvml().Stop();

    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      for (auto& dev : cluster.node(n).gpus) {
        const std::string uuid = dev->uuid().value();
        for (const gpu::NvmlSample& s : traces.NvmlSamples(dev->uuid())) {
          const std::string at = uuid + " " + std::to_string(s.at.count());
          nvml_util.Add(at + " " + std::to_string(s.gpu_util));
          nvml_mem.Add(at + " " + std::to_string(s.mem_used));
        }
      }
    }
    const metrics::SwapMetrics swap = metrics::CollectSwapMetrics(
        cluster, [&host](const GpuUuid& uuid) { return host.SwapFor(uuid); });
    run.migrations = swap.migrations_total;
    run.tq_engagements = swap.tq_engagements_total;
    run.pool_dump = kubeshare.pool().DebugString();
    run.completed = host.completed();
    run.events = cluster.sim().lifetime_events();
    run.traces = " nvml_util=" + nvml_util.str() +
                 " completed=" + std::to_string(host.completed()) +
                 " failed=" + std::to_string(host.failed());
    EXPECT_TRUE(kubeshare.pool().CheckIndexInvariants().ok());
  }
  run.traces = traces.str() + run.traces;
  run.nvml_mem = nvml_mem.str();
  return run;
}

void ExpectRunsEqual(const OversubRun& a, const OversubRun& b,
                     const std::string& label, bool include_mem = true) {
  EXPECT_EQ(a.traces, b.traces) << label;
  if (include_mem) {
    EXPECT_EQ(a.nvml_mem, b.nvml_mem) << label;
  }
}

TEST(OversubEquivalence, FactorOneByteEqualToFeatureOffUnderChaos) {
  for (const std::uint64_t seed : {91u, 92u, 93u}) {
    RunOptions on;
    on.oversub = true;
    on.factor = 1.0;  // aggregate working set fits: no page ever moves
    on.chaos = true;
    on.seed = seed;
    RunOptions off = on;
    off.oversub = false;
    const OversubRun a = RunOversubCluster(on);
    const OversubRun b = RunOversubCluster(off);
    // mem_used excluded: over-commitment host-backs allocations (see
    // file header); every scheduling-visible trace must still match.
    ExpectRunsEqual(a, b, "factor-1.0 seed " + std::to_string(seed),
                    /*include_mem=*/false);
    EXPECT_EQ(a.migrations, 0u) << "factor 1.0 must never migrate";
    EXPECT_GT(a.completed, 0u);
  }
}

TEST(OversubEquivalence, TqEnabledNoPressureByteEqualUnderChaos) {
  for (const std::uint64_t seed : {94u, 95u}) {
    RunOptions tq_on;
    tq_on.oversub = true;
    tq_on.factor = 1.0;
    tq_on.tq = true;
    tq_on.chaos = true;
    tq_on.seed = seed;
    RunOptions tq_off = tq_on;
    tq_off.tq = false;
    const OversubRun a = RunOversubCluster(tq_on);
    const OversubRun b = RunOversubCluster(tq_off);
    ExpectRunsEqual(a, b, "tq-idle seed " + std::to_string(seed));
    EXPECT_EQ(a.tq_engagements, 0u)
        << "thrash detector engaged without swap traffic";
  }
}

RunOptions SwapHeavy() {
  RunOptions opt;
  opt.oversub = true;
  opt.factor = 2.0;
  opt.tq = true;
  opt.nodes = 1;
  opt.gpus_per_node = 1;
  opt.tenants = 3;
  opt.model_frac = 0.55;  // aggregate 1.65x capacity: every hand-off swaps
  opt.gpu_mem = 0.6;
  opt.horizon = Seconds(120);
  return opt;
}

TEST(OversubEquivalence, SwapHeavyMatchesReferenceGolden) {
  const OversubRun run = RunOversubCluster(SwapHeavy());
  golden::TraceDigest pool;
  pool.Add(run.pool_dump);
  golden::ExpectDeviceGolden(
      "oversub/swap-heavy",
      run.traces + " nvml_mem=" + run.nvml_mem +
          " events=" + std::to_string(run.events) +
          " migrations=" + std::to_string(run.migrations) +
          " tq=" + std::to_string(run.tq_engagements) + " pool=" + pool.str());
  EXPECT_GT(run.migrations, 0u) << "working set above capacity never swapped";
}

TEST(OversubEquivalence, SwapHeavyRunIsDeterministic) {
  const OversubRun a = RunOversubCluster(SwapHeavy());
  const OversubRun b = RunOversubCluster(SwapHeavy());
  ExpectRunsEqual(a, b, "determinism");
  EXPECT_EQ(a.pool_dump, b.pool_dump);
  EXPECT_EQ(a.migrations, b.migrations);
}

}  // namespace
}  // namespace ks::vgpu
