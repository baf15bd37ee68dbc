// Adversarial tenant walkthrough: one flooding tenant beside two polite
// ones, and what the isolation enforcer does about it.
//
// Three training sharePods share one GPU. At t=10s the chaos injector
// turns "greedy" hostile: its copy of the device library stops honoring
// token revocation — it overstays every grant and floods kernels at the
// driver. Client-side throttling is exactly what a hostile tenant patches
// out, so containment is server-side:
//   1. the device's per-owner token gate fences the dead grant's epoch —
//      flooded submissions are rejected, not run;
//   2. the fence deadline reclaims the overstayed token and attributes an
//      overstay violation;
//   3. repeat violations clamp the tenant's quota down, then DevMgr evicts
//      it (sharePod -> Failed "Evicted: isolation violations");
//   4. the polite neighbors inherit the reclaimed share.
//
//   $ ./examples/hostile_tenant

#include <cstdio>
#include <iostream>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/isolation.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

using namespace ks;

int main() {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  config.backend.enforcement.enabled = true;
  k8s::Cluster cluster(config);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  if (!cluster.Start().ok() || !kubeshare.Start().ok()) return 1;

  const char* tenants[] = {"polite-0", "polite-1", "greedy"};
  for (const char* name : tenants) {
    workload::TrainingSpec spec;
    spec.steps = 4000;  // ~40 s of kernels at a fair 1/3 share
    spec.step_kernel = Millis(10);
    spec.model_bytes = 1ull << 30;
    host.ExpectJob(name, [spec] {
      return std::make_unique<workload::TrainingJob>(spec);
    });
    kubeshare::SharePod sp;
    sp.meta.name = name;
    sp.spec.gpu.gpu_request = 0.3;
    sp.spec.gpu.gpu_limit = 1.0;
    sp.spec.gpu.gpu_mem = 0.2;
    if (!kubeshare.CreateSharePod(sp).ok()) return 1;
  }

  // The scripted attack: greedy ignores revocation from t=10s on.
  chaos::FaultPlan plan;
  for (const chaos::FaultKind kind :
       {chaos::FaultKind::kTenantTokenOverstay,
        chaos::FaultKind::kTenantKernelFlood}) {
    chaos::Fault f;
    f.at = Seconds(10);
    f.kind = kind;
    f.pod = "greedy";
    f.duration = Duration{0};  // hostile until the run ends
    plan.faults.push_back(f);
  }
  chaos::FaultInjector injector(&cluster, plan);
  injector.SetKubeShare(&kubeshare);
  injector.SetWorkloadHost(&host);
  if (!injector.Arm().ok()) return 1;

  vgpu::TokenBackend* backend = cluster.node(0).token_backend.get();
  std::printf("    t   polite-0  polite-1    greedy   (server-side usage)\n");
  for (int t = 8; t <= 44; t += 4) {
    cluster.sim().RunUntil(Seconds(t));
    std::printf("  %3ds", t);
    for (const char* name : tenants) {
      const vgpu::FrontendHook* hook = host.RunningHook(name);
      std::printf("  %8.3f",
                  hook ? backend->UsageOf(hook->container()) : 0.0);
    }
    std::printf("%s\n",
                host.RunningHook("greedy") == nullptr ? "   <- evicted" : "");
  }
  cluster.sim().RunUntil(Minutes(3));

  std::printf("\nevent timeline (tail):\n");
  cluster.api().events().Print(std::cout, 16);

  const metrics::IsolationMetrics iso =
      metrics::CollectIsolationMetrics(cluster, &kubeshare);
  std::printf("\nisolation summary:\n");
  std::printf("  violations attributed     : %llu (overstays %llu, fenced "
              "submits %llu)\n",
              static_cast<unsigned long long>(iso.violations_total),
              static_cast<unsigned long long>(iso.overstays),
              static_cast<unsigned long long>(iso.fenced_submits));
  std::printf("  fenced kernel rejections  : %llu\n",
              static_cast<unsigned long long>(iso.fenced_kernel_rejections));
  std::printf("  quota clamp-downs         : %llu\n",
              static_cast<unsigned long long>(iso.clampdowns_total));
  std::printf("  tenants evicted           : %llu\n",
              static_cast<unsigned long long>(iso.tenants_evicted));
  std::printf("  jobs completed / failed   : %zu / %zu\n", host.completed(),
              host.failed());
  std::printf("\nthe attack cost the attacker its pod, not its neighbors "
              "their share:\nboth polite tenants finished, greedy's sharePod "
              "is Failed (\"Evicted\").\n");
  return host.completed() == 2 && iso.tenants_evicted == 1 ? 0 : 1;
}
