// Figure 7: "Performance impact from different time quota setting in the
// vGPU device library" — normalized training throughput vs token quota.
//
// A single training job under the device library with the quota swept
// 30..160 ms, normalized against the same job without the library (the
// paper's baseline). The slowdown is the modeled token exchange
// (BackendConfig::exchange_latency, 1.5 ms) paid once per quota.

#include <iostream>

#include "common/table.hpp"
#include "cuda/context.hpp"
#include "harness.hpp"
#include "vgpu/frontend_hook.hpp"
#include "workload/job.hpp"

namespace {

/// Steps completed in `horizon` of simulated time by a training job that
/// never runs out of work, with or without the vGPU device library.
int StepsIn(ks::Duration horizon, bool with_library, ks::Duration quota) {
  using namespace ks;
  sim::Simulation sim;
  gpu::GpuDevice dev(&sim, GpuUuid("GPU-0"));
  vgpu::BackendConfig cfg;
  cfg.quota = quota;
  vgpu::TokenBackend backend(&sim, cfg);
  cuda::CudaContext ctx(&dev, ContainerId("train"));
  std::unique_ptr<vgpu::FrontendHook> hook;
  cuda::CudaApi* api = &ctx;
  if (with_library) {
    vgpu::ResourceSpec spec;  // request 0, limit 1: pure overhead probe
    hook = std::make_unique<vgpu::FrontendHook>(&ctx, &backend,
                                                ContainerId("train"),
                                                dev.uuid(), spec,
                                                dev.spec().memory_bytes);
    api = hook.get();
  }
  workload::TrainingSpec spec;
  spec.steps = 1'000'000;
  spec.step_kernel = Millis(10);
  workload::TrainingJob job(spec);
  job.Start(api, &sim, nullptr);
  sim.RunUntil(horizon);
  job.Stop();
  return job.completed_steps();
}

}  // namespace

int main() {
  using namespace ks;
  bench::Banner("bench_fig7: training throughput vs token time quota",
                "Figure 7");

  const Duration horizon = Seconds(60);
  const int baseline = StepsIn(horizon, /*with_library=*/false, Millis(100));

  std::cout << "\n(a) Simulated device library (baseline = no library, "
            << baseline << " steps / 60 s)\n\n";
  Table sim_table({"quota (ms)", "steps/60s", "normalized", "exchanges"});
  for (const int quota_ms : {30, 40, 60, 80, 100, 120, 140, 160}) {
    const int steps = StepsIn(horizon, true, Millis(quota_ms));
    // Analytic expectation: quota / (quota + exchange).
    sim_table.AddRow({Cell(static_cast<std::int64_t>(quota_ms)),
                      Cell(static_cast<std::int64_t>(steps)),
                      Cell(static_cast<double>(steps) / baseline, 4),
                      Cell(static_cast<std::int64_t>(
                          ToSeconds(horizon) * 1000 / (quota_ms + 1.5)))});
  }
  sim_table.Print(std::cout);
  std::cout << "\nExpected shape (paper): <=5% slowdown at quota 30 ms, "
               "shrinking as the\nquota grows (overhead ~ exchange/(quota+"
               "exchange), exchange = 1.5 ms).\n";

  return 0;
}
