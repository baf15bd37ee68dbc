// Isolation-under-attack study (robustness extension; no paper figure):
// what one hostile tenant costs its polite neighbors, with and without
// server-side isolation enforcement.
//
// Three tenants share one GPU through the full KubeShare stack; all are
// continuous training jobs with gpu_request 0.3, so the healthy elastic
// split is ~1/3 each. One tenant ("greedy") is turned hostile by the chaos
// injector — it overstays its token grants and floods kernels straight at
// the driver, revocation or not. Three modes:
//   baseline    all tenants polite (the fig6-style fair split);
//   unenforced  greedy attacks, isolation enforcement OFF — the client-side
//               device library is the only throttle, and a tenant that
//               patches it out steals its neighbors' share;
//   enforced    greedy attacks, enforcement ON — token-epoch fencing at the
//               device, overstay reclaim, violation clamp-down, eviction.
//
// The acceptance gate (checked by scripts/check_bench_json.py against
// BENCH_isolation.json): with enforcement on, every polite tenant keeps
// >= 95% of its baseline usage; with enforcement off, the attack visibly
// collapses at least one polite tenant's share.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "json_report.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/isolation.hpp"
#include "workload/host.hpp"

namespace {

using namespace ks;

const char* kTenants[] = {"polite-0", "polite-1", "greedy"};
constexpr std::size_t kHostile = 2;  // index of the attacker

struct ModeResult {
  // Mean over the steady-state sampling window, per tenant.
  double usage[3] = {0.0, 0.0, 0.0};
  metrics::IsolationMetrics isolation;
  std::uint64_t total_events = 0;
  bool hostile_evicted = false;
};

ModeResult Run(bool attack, bool enforcement) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  ccfg.backend.enforcement.enabled = enforcement;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  (void)cluster.Start();
  (void)kubeshare.Start();

  for (const char* name : kTenants) {
    workload::TrainingSpec spec;
    spec.steps = 1'000'000;  // runs past the end of the sampling window
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
    (void)kubeshare.CreateSharePod(sp);
  }

  chaos::FaultInjector* injector = nullptr;
  chaos::FaultPlan plan;
  if (attack) {
    // Hostile from t=10s (well past the ~5s pod-start pipeline) for the
    // rest of the run: overstay every grant and flood the driver.
    for (const chaos::FaultKind kind :
         {chaos::FaultKind::kTenantTokenOverstay,
          chaos::FaultKind::kTenantKernelFlood}) {
      chaos::Fault f;
      f.at = Seconds(10);
      f.kind = kind;
      f.pod = kTenants[kHostile];
      f.duration = Duration{0};  // stays hostile until the run ends
      plan.faults.push_back(f);
    }
  }
  chaos::FaultInjector inj(&cluster, plan);
  inj.SetKubeShare(&kubeshare);
  inj.SetWorkloadHost(&host);
  injector = &inj;
  (void)injector->Arm();

  vgpu::TokenBackend* backend = cluster.node(0).token_backend.get();
  ModeResult r;
  // Steady state: attack (if any) starts at 10s; sample [24s, 40s] so the
  // 10s usage window only sees the attacked regime.
  int samples = 0;
  for (int t = 24; t <= 40; t += 2) {
    cluster.sim().RunUntil(Seconds(t));
    for (std::size_t i = 0; i < 3; ++i) {
      if (const vgpu::FrontendHook* hook = host.RunningHook(kTenants[i])) {
        r.usage[i] += backend->UsageOf(hook->container());
      }
    }
    ++samples;
  }
  for (double& u : r.usage) u /= samples;

  r.isolation = metrics::CollectIsolationMetrics(cluster, &kubeshare);
  r.total_events = cluster.sim().lifetime_events();
  r.hostile_evicted = r.isolation.tenants_evicted > 0;
  return r;
}

}  // namespace

int main() {
  bench::Banner(
      "bench_study_isolation: polite-tenant fairness under a hostile tenant",
      "robustness study (isolation enforcement subsystem)");

  std::cout << "\n1 node x 1 GPU, 3 training tenants (request 0.3 each); "
               "\"greedy\" turns\nhostile at t=10s (token overstay + kernel "
               "flood). Usage is the backend's\nserver-side attribution, "
               "averaged over t=[24s,40s].\n\n";

  const ModeResult baseline = Run(/*attack=*/false, /*enforcement=*/false);
  const ModeResult unenforced = Run(/*attack=*/true, /*enforcement=*/false);
  const ModeResult enforced = Run(/*attack=*/true, /*enforcement=*/true);

  struct ModeRow {
    const char* mode;
    const ModeResult* r;
  };
  const ModeRow modes[] = {{"baseline", &baseline},
                           {"unenforced", &unenforced},
                           {"enforced", &enforced}};

  Table table({"mode", "tenant", "usage", "vs baseline", "violations",
               "fenced", "clamps", "evicts"});
  JsonValue report = bench::MakeReport("isolation");
  for (const ModeRow& m : modes) {
    for (std::size_t i = 0; i < 3; ++i) {
      const double base = baseline.usage[i];
      const double ratio = base > 0 ? m.r->usage[i] / base : 0.0;
      table.AddRow(
          {m.mode, kTenants[i], Cell(m.r->usage[i], 3), Cell(ratio, 2),
           Cell(static_cast<std::int64_t>(m.r->isolation.violations_total)),
           Cell(static_cast<std::int64_t>(
               m.r->isolation.fenced_kernel_rejections)),
           Cell(static_cast<std::int64_t>(m.r->isolation.clampdowns_total)),
           Cell(static_cast<std::int64_t>(m.r->isolation.tenants_evicted))});
      JsonValue row = JsonValue::Object();
      row.Set("mode", std::string(m.mode));
      row.Set("tenant", std::string(kTenants[i]));
      row.Set("hostile", i == kHostile);
      row.Set("usage", m.r->usage[i]);
      row.Set("ratio_vs_baseline", ratio);
      row.Set("violations_total",
              static_cast<std::int64_t>(m.r->isolation.violations_total));
      row.Set("fenced_rejections",
              static_cast<std::int64_t>(
                  m.r->isolation.fenced_kernel_rejections));
      row.Set("clampdowns_total",
              static_cast<std::int64_t>(m.r->isolation.clampdowns_total));
      row.Set("evictions_total",
              static_cast<std::int64_t>(m.r->isolation.tenants_evicted));
      row.Set("total_events", static_cast<std::int64_t>(m.r->total_events));
      bench::AddRow(report, std::move(row));
    }
  }
  table.Print(std::cout);

  std::cout << "\nExpected shape: baseline splits ~1/3 each. Unenforced, the "
               "hostile tenant's\nflood starves its neighbors (polite ratios "
               "well below 1). Enforced, the\ndevice fences the dead grants, "
               "violations clamp then evict the attacker, and\nthe polite "
               "tenants keep (or better) their baseline share.\n";
  std::cout << "\nwrote " << bench::WriteReport(report) << "\n";
  return 0;
}
