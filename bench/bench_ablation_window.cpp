// Ablation (DESIGN.md): the sliding-window length of the usage tracker.
//
// Fig 6 notes that "the GPU usage of a job slightly fluctuates at its
// requested demand" and ties the fluctuation to the time quota; the other
// parameter in that trade is the usage window the backend measures over.
// A short window reacts fast but wobbles (each quota is a big fraction of
// it); a long window is smooth but slow to redistribute capacity when a
// job leaves. Both effects are measured here with the Fig 6 regime
// (A req .3/lim .6 alone, then +B req .4/lim .6).

#include <iostream>

#include "common/table.hpp"
#include "cuda/context.hpp"
#include "harness.hpp"
#include "vgpu/frontend_hook.hpp"
#include "workload/job.hpp"

namespace {

using namespace ks;

struct WindowResult {
  double yield_s = -1.0;   // time for the incumbent to yield to an arrival
  double settle_s = -1.0;  // time for the survivor to re-absorb a departure
};

WindowResult Run(Duration window) {
  sim::Simulation sim;
  gpu::GpuDevice dev(&sim, GpuUuid("GPU-0"));
  vgpu::BackendConfig cfg;
  cfg.usage_window = window;
  vgpu::TokenBackend backend(&sim, cfg);

  auto make_spec = [](double request, double limit) {
    vgpu::ResourceSpec s;
    s.gpu_request = request;
    s.gpu_limit = limit;
    return s;
  };
  cuda::CudaContext ctx_a(&dev, ContainerId("A"));
  vgpu::FrontendHook hook_a(&ctx_a, &backend, ContainerId("A"), dev.uuid(),
                            make_spec(0.3, 0.6), dev.spec().memory_bytes);
  workload::TrainingSpec train;
  train.steps = 1'000'000;
  train.step_kernel = Millis(10);
  workload::TrainingJob job_a(train);
  job_a.Start(&hook_a, &sim, nullptr);

  // Phase 1: A alone, throttled at its 0.6 limit.
  sim.RunUntil(Seconds(180));

  // Phase 2: B joins. A new arrival's guarantee engages almost instantly
  // (its early-ramp usage counts only its observed lifetime), but the
  // *incumbent* only yields as its window slides: measure the time until
  // A's measured usage drops to 0.52 on its way to the 0.5 split. Then B
  // leaves; measure how fast A re-absorbs (back to 0.575).
  WindowResult out;
  {
    cuda::CudaContext ctx_b(&dev, ContainerId("B"));
    vgpu::FrontendHook hook_b(&ctx_b, &backend, ContainerId("B"), dev.uuid(),
                              make_spec(0.4, 0.6), dev.spec().memory_bytes);
    workload::TrainingJob job_b(train);
    job_b.Start(&hook_b, &sim, nullptr);
    const Time arrival = sim.Now();
    for (int ms = 100; ms <= 120'000; ms += 100) {
      sim.RunUntil(arrival + Millis(ms));
      if (backend.UsageOf(ContainerId("A")) <= 0.52) {
        out.yield_s = ToSeconds(Millis(ms));
        break;
      }
    }
    sim.RunUntil(Seconds(300));  // settle at 0.5/0.5
    job_b.Stop();
  }  // B's hook unregisters here
  const Time departure = sim.Now();
  // A sits at ~0.5 when B leaves; time until it has re-absorbed 3/4 of the
  // freed capacity (usage 0.575 on the way back to its 0.6 limit).
  for (int ms = 100; ms <= 120'000; ms += 100) {
    sim.RunUntil(departure + Millis(ms));
    if (backend.UsageOf(ContainerId("A")) >= 0.575) {
      out.settle_s = ToSeconds(Millis(ms));
      break;
    }
  }
  job_a.Stop();
  return out;
}

}  // namespace

int main() {
  bench::Banner(
      "bench_ablation_window: usage sliding-window length",
      "DESIGN.md ablation (Fig 6 fluctuation / responsiveness trade)");

  Table table({"window (s)", "incumbent yield time (s)",
               "re-absorb after departure (s)"});
  for (const double window_s : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    const WindowResult r = Run(Seconds(window_s));
    table.AddRow({Cell(window_s, 0),
                  r.yield_s < 0 ? "n/a" : Cell(r.yield_s, 1),
                  r.settle_s < 0 ? "n/a" : Cell(r.settle_s, 1)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected: both transients scale with the window — the "
               "backend compares\nusage measured over the trailing window "
               "against request/limit, so a job's\nmeasured share only "
               "moves as fast as the window slides. Short windows\nreact "
               "in fractions of a second; a 40 s window takes many seconds "
               "to\nrebalance. The Fig 6 regimes assume a window well "
               "below the 200 s phase\nlength; ~10 s satisfies that with "
               "smooth-enough accounting.\n";

  return 0;
}
