// Figure 6: "KubeShare ensures GPU isolation among containers according to
// their resource demands (gpu_request, gpu_limit)."
//
// Three TensorFlow-style training jobs share one GPU through the full
// KubeShare stack (sharePod -> Sched -> DevMgr -> device library):
//   Job A at t=0s    (gpu_request 0.3, gpu_limit 0.6)
//   Job B at t=200s  (gpu_request 0.4, gpu_limit 0.6)
//   Job C at t=400s  (gpu_request 0.3, gpu_limit 0.5), finishing ~660s.
//
// Expected regimes (paper §5.2):
//   [0,200):    A alone, throttled at its limit 0.6
//   [200,400):  A+B, elastic fair split 0.5 / 0.5
//   [400,660):  requests saturate (0.3+0.4+0.3=1.0): A=0.3, B=0.4, C=0.3
//               (note: the paper's figure labels read A=0.4/B=0.3; the
//               stated requests make B's guarantee 0.4 — see DESIGN.md)
//   [660,...):  C's residual redistributes: A and B back to 0.5 / 0.5.

#include <iostream>

#include "common/table.hpp"
#include "harness.hpp"
#include "workload/host.hpp"

int main() {
  using namespace ks;
  bench::Banner("bench_fig6: per-container GPU isolation timeline",
                "Figure 6");

  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  if (!cluster.Start().ok() || !kubeshare.Start().ok()) return 1;

  struct JobDef {
    const char* name;
    double arrival_s;
    double request;
    double limit;
    int steps;  // large = runs past the sampling window
  };
  // C: ~260s at usage 0.3 -> 78s of kernels -> 7800 steps of 10ms.
  const JobDef jobs[] = {
      {"A", 0, 0.3, 0.6, 1'000'000},
      {"B", 200, 0.4, 0.6, 1'000'000},
      {"C", 400, 0.3, 0.5, 7'800},
  };

  for (const JobDef& j : jobs) {
    cluster.sim().ScheduleAt(Seconds(j.arrival_s), [&, j] {
      workload::TrainingSpec spec;
      spec.steps = j.steps;
      spec.step_kernel = Millis(10);
      spec.model_bytes = 2ull << 30;
      host.ExpectJob(j.name, [spec] {
        return std::make_unique<workload::TrainingJob>(spec);
      });
      kubeshare::SharePod sp;
      sp.meta.name = j.name;
      sp.spec.gpu.gpu_request = j.request;
      sp.spec.gpu.gpu_limit = j.limit;
      sp.spec.gpu.gpu_mem = 0.2;
      (void)kubeshare.CreateSharePod(sp);
    });
  }

  vgpu::TokenBackend* backend = cluster.node(0).token_backend.get();
  Table table({"time (s)", "A usage", "B usage", "C usage", "total"});
  auto usage_of = [&](const char* name) -> double {
    const vgpu::FrontendHook* hook = host.RunningHook(name);
    if (hook == nullptr) return 0.0;
    return backend->UsageOf(hook->container());
  };

  for (int t = 20; t <= 800; t += 20) {
    cluster.sim().RunUntil(Seconds(t));
    const double a = usage_of("A");
    const double b = usage_of("B");
    const double c = usage_of("C");
    table.AddRow({Cell(static_cast<std::int64_t>(t)), Cell(a, 3), Cell(b, 3),
                  Cell(c, 3), Cell(a + b + c, 3)});
  }
  table.Print(std::cout);

  std::cout << "\ntoken accounting over the run:\n";
  for (const JobDef& j : jobs) {
    const vgpu::FrontendHook* hook = host.RunningHook(j.name);
    if (hook == nullptr) continue;  // C already exited
    const auto stats = backend->StatsOf(hook->container());
    std::cout << "  job " << j.name << ": " << stats.grants << " grants, "
              << Cell(ToSeconds(stats.held_total), 1) << " s held, "
              << Cell(ToMillis(stats.overrun_total), 1) << " ms overrun\n";
  }

  std::cout << "\nExpected shape (paper): 0.6 alone -> 0.5/0.5 -> pinned at\n"
               "requests (0.3/0.4/0.3) -> back to 0.5/0.5 after C exits at\n"
               "~660s; total utilization ~1.0 from 200s on.\n";
  return 0;
}
