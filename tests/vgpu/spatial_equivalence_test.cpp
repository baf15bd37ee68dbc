// Differential tests for the spatial sharing subsystem.
//
//   1. Spatial mode enabled but every sharePod claiming the whole GPU
//      (slice_groups = 0) must produce cluster traces byte-equal to the
//      temporal-only system (spatial disabled) — the concurrent-token
//      grant loop, with full-GPU claims, must reduce exactly to the
//      single-token schedule, including grant order and expiry times.
//   2. With real slice claims, the cluster must reproduce the traces and
//      pool state recorded in tests/golden/device.golden from the
//      per-kernel reference engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "support/golden.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::vgpu {
namespace {

constexpr int kSmGroups = 7;

struct SpatialRun {
  /// Kernel and token trace digests plus completions.
  std::string traces;
  std::string pool_dump;
  std::size_t completed = 0;
  std::uint64_t events = 0;
};

struct RunOptions {
  bool spatial = false;
  /// Claim widths per tenant index; 0 = whole GPU. Resized cyclically.
  std::vector<int> claims;
  std::uint64_t seed = 1;
  int tenants = 6;
};

SpatialRun RunSpatialCluster(const RunOptions& opt) {
  SpatialRun run;
  golden::ClusterDigests traces;
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 2;
    ccfg.gpus_per_node = 2;
    ccfg.spatial.enabled = opt.spatial;
    ccfg.spatial.sm_groups = kSmGroups;
    k8s::Cluster cluster(ccfg);
    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);
    traces.Attach(cluster);

    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());

    Rng rng(opt.seed);
    for (int i = 0; i < opt.tenants; ++i) {
      const int claim =
          opt.claims.empty()
              ? 0
              : opt.claims[static_cast<std::size_t>(i) % opt.claims.size()];
      const std::string name = "tenant-" + std::to_string(i);
      workload::TrainingSpec spec;
      spec.steps = static_cast<int>(rng.UniformInt(120, 200));
      spec.step_kernel = Millis(rng.UniformInt(5, 15));
      spec.model_bytes = 1ull << 30;
      spec.sm_demand =
          claim > 0 ? static_cast<double>(claim) / kSmGroups : 1.0;
      host.ExpectJob(name, [spec] {
        return std::make_unique<workload::TrainingJob>(spec);
      });
      kubeshare::SharePod sp;
      sp.meta.name = name;
      sp.spec.gpu.gpu_request = 0.05 * static_cast<double>(
                                            rng.UniformInt(2, 8));
      sp.spec.gpu.gpu_limit = 1.0;
      sp.spec.gpu.gpu_mem = 0.1;
      sp.spec.gpu.slice_groups = claim;
      EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
    }

    cluster.sim().RunUntil(Seconds(60));
    run.pool_dump = kubeshare.pool().DebugString();
    run.completed = host.completed();
    run.events = cluster.sim().lifetime_events();
    run.traces = " completed=" + std::to_string(host.completed()) +
                 " failed=" + std::to_string(host.failed());
    EXPECT_TRUE(kubeshare.pool().CheckIndexInvariants().ok());
  }
  run.traces = traces.str() + run.traces;
  return run;
}

TEST(SpatialEquivalence, FullGpuClaimsByteEqualToTemporalPath) {
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    RunOptions spatial;
    spatial.spatial = true;
    spatial.claims = {0};  // every tenant claims the whole device
    spatial.seed = seed;
    RunOptions temporal = spatial;
    temporal.spatial = false;
    const SpatialRun a = RunSpatialCluster(spatial);
    const SpatialRun b = RunSpatialCluster(temporal);
    EXPECT_EQ(a.traces, b.traces) << "full-gpu-claims seed " << seed;
    EXPECT_GT(a.completed, 0u);
  }
}

TEST(SpatialEquivalence, SlicedClusterMatchesReferenceGolden) {
  for (const std::uint64_t seed : {71u, 72u, 73u}) {
    RunOptions opt;
    opt.spatial = true;
    opt.claims = {1, 2, 1, 3};
    opt.seed = seed;
    const SpatialRun run = RunSpatialCluster(opt);
    golden::TraceDigest pool;
    pool.Add(run.pool_dump);
    golden::ExpectDeviceGolden("spatial/sliced-seed" + std::to_string(seed),
                               run.traces + " events=" +
                                   std::to_string(run.events) +
                                   " pool=" + pool.str());
    EXPECT_GT(run.completed, 0u);
  }
}

TEST(SpatialEquivalence, MixedClaimsRunIsDeterministic) {
  RunOptions opt;
  opt.spatial = true;
  opt.claims = {1, 0, 2, 4};
  opt.seed = 81;
  const SpatialRun a = RunSpatialCluster(opt);
  const SpatialRun b = RunSpatialCluster(opt);
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.pool_dump, b.pool_dump);
}

}  // namespace
}  // namespace ks::vgpu
