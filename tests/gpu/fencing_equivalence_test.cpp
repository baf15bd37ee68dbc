// Golden pins for isolation enforcement under adversarial tenants: seeded
// full-cluster KubeShare runs in which the chaos injector turns a running
// tenant hostile (token overstay, revocation-ignoring kernel floods,
// memory-limit probing, metrics spoofing) must reproduce the kernel
// traces, token traces and isolation-enforcement counters recorded in
// tests/golden/device.golden from the per-kernel reference engine. The
// fencing gate, quota clamp-down and eviction ladder are part of the
// observable surface: an attacker must not be able to change what the
// system does by racing the engine, and the enforcement response itself
// must be deterministic.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/isolation.hpp"
#include "support/golden.hpp"
#include "workload/generator.hpp"
#include "workload/host.hpp"

namespace ks::gpu {
namespace {

struct HostileRun {
  /// Traces, completions, engine events and every enforcement counter.
  std::string summary;
  metrics::IsolationMetrics isolation;
  std::uint64_t tenants_turned = 0;
};

HostileRun RunHostileCluster(std::uint64_t seed,
                             const std::vector<chaos::FaultKind>& attacks) {
  HostileRun run;
  golden::ClusterDigests traces;
  std::ostringstream out;
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 3;
    ccfg.gpus_per_node = 2;
    ccfg.backend.enforcement.enabled = true;
    k8s::Cluster cluster(ccfg);
    traces.Attach(cluster);

    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);
    workload::WorkloadConfig wcfg;
    wcfg.total_jobs = 12;
    wcfg.mean_interarrival = Seconds(1.0);
    wcfg.demand_mean = 0.4;
    wcfg.demand_stddev = 0.15;
    wcfg.job_duration = Seconds(6);
    wcfg.seed = seed;
    wcfg.job_kind = workload::WorkloadConfig::JobKind::kInference;
    workload::WorkloadDriver driver(
        &cluster, &host, workload::WorkloadDriver::Mode::kKubeShare,
        &kubeshare, wcfg);

    chaos::FaultPlan plan;
    Time at = Seconds(6);
    for (const chaos::FaultKind kind : attacks) {
      chaos::Fault f;
      f.at = at;
      f.kind = kind;
      f.duration = Seconds(8);  // hostile window; "" pod = first running job
      plan.faults.push_back(f);
      at = at + Millis(500);  // stagger so multiple attacks compose
    }
    chaos::FaultInjector injector(&cluster, plan);
    injector.SetKubeShare(&kubeshare);
    injector.SetWorkloadHost(&host);

    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());
    EXPECT_TRUE(injector.Arm().ok());
    driver.Start();
    cluster.sim().RunUntil(Seconds(35));

    run.isolation = metrics::CollectIsolationMetrics(cluster, &kubeshare);
    const chaos::ChaosStats& stats = injector.stats();
    run.tenants_turned = stats.tenant_overstays + stats.tenant_floods +
                         stats.tenant_probes + stats.tenant_spoofs;
    std::uint64_t attack_ticks = 0;
    for (const std::string& job : host.RunningKubeShareJobs()) {
      if (const vgpu::FrontendHook* hook = host.RunningHook(job)) {
        attack_ticks += hook->attack_ticks();
      }
    }
    const metrics::IsolationMetrics& m = run.isolation;
    out << " completed=" << host.completed() << " failed=" << host.failed()
        << " events=" << cluster.sim().lifetime_events()
        << " turned=" << run.tenants_turned << " ticks=" << attack_ticks
        << " ledger=" << m.violations_total << "/" << m.clampdowns_total
        << "/" << m.evictions_total << " violations=" << m.overstays << "/"
        << m.fenced_submits << "/" << m.memory_violations << "/"
        << m.metrics_spoofs << " rejections=" << m.fenced_kernel_rejections
        << "/" << m.memory_quota_rejections
        << " evicted=" << m.tenants_evicted;
  }
  run.summary = traces.str() + out.str();
  return run;
}

HostileRun ExpectPinned(const std::string& key, std::uint64_t seed,
                        const std::vector<chaos::FaultKind>& attacks) {
  const HostileRun run = RunHostileCluster(seed, attacks);
  golden::ExpectDeviceGolden("fencing/" + key + "-seed" + std::to_string(seed),
                             run.summary);
  // The attack must actually have run — a plan that fizzled (no running
  // job to turn hostile) would make the pin vacuous.
  EXPECT_GT(run.tenants_turned, 0u) << key << " seed " << seed;
  return run;
}

TEST(FencingEquivalence, OverstayTracesByteEqual) {
  for (std::uint64_t seed : {51u, 52u}) {
    const HostileRun run =
        ExpectPinned("overstay", seed, {chaos::FaultKind::kTenantTokenOverstay});
    // The fence deadline must have reclaimed the overstayed grant.
    EXPECT_GT(run.isolation.overstays, 0u);
  }
}

// Flood kernels bypass the frontend and queue in the driver stream between
// the kernels the frontend forwards one at a time. Once the tenant's own
// queue drains it releases the token, and the flood kernels still queued
// behind it meet a fenced gate.
TEST(FencingEquivalence, KernelFloodTracesByteEqual) {
  for (std::uint64_t seed : {53u, 54u}) {
    ExpectPinned("flood", seed, {chaos::FaultKind::kTenantKernelFlood});
  }
}

TEST(FencingEquivalence, MemoryProbeAndSpoofTracesByteEqual) {
  for (std::uint64_t seed : {55u, 56u}) {
    ExpectPinned("probe-spoof", seed,
                 {chaos::FaultKind::kTenantMemoryProbe,
                  chaos::FaultKind::kTenantMetricsSpoof});
  }
}

TEST(FencingEquivalence, ComposedAttackTracesByteEqual) {
  const HostileRun run =
      ExpectPinned("composed", 57u,
                   {chaos::FaultKind::kTenantTokenOverstay,
                    chaos::FaultKind::kTenantKernelFlood,
                    chaos::FaultKind::kTenantMemoryProbe,
                    chaos::FaultKind::kTenantMetricsSpoof});
  EXPECT_GT(run.isolation.violations_total, 0u);
}

TEST(FencingEquivalence, RepeatRunsAreByteEqual) {
  // Determinism: the same hostile run twice must be byte-equal — the
  // adversarial schedule may not depend on anything but (seed, plan).
  const std::vector<chaos::FaultKind> attacks{
      chaos::FaultKind::kTenantTokenOverstay,
      chaos::FaultKind::kTenantKernelFlood};
  EXPECT_EQ(RunHostileCluster(58u, attacks).summary,
            RunHostileCluster(58u, attacks).summary);
}

}  // namespace
}  // namespace ks::gpu
