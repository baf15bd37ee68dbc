// Figure 5: "The positive correlation between the GPU usage and the number
// of client requests for TF-serving."
//
// A single inference job runs unthrottled on one GPU while the client
// request rate is swept; GPU usage is read from the NVML monitor, exactly
// as the paper measures it.

#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "cuda/context.hpp"
#include "gpu/nvml.hpp"
#include "harness.hpp"
#include "workload/job.hpp"

int main() {
  using namespace ks;
  bench::Banner("bench_fig5: inference GPU usage vs client request rate",
                "Figure 5");

  Table table({"request_rate (req/s)", "expected_usage", "nvml_gpu_usage"});
  for (const double rate : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0,
                            45.0}) {
    sim::Simulation sim;
    gpu::GpuDevice dev(&sim, GpuUuid("GPU-0"));
    sim::TickHub hub(&sim);
    gpu::NvmlMonitor nvml(&hub, Seconds(1));
    nvml.Register(&dev);
    nvml.Start();
    cuda::CudaContext ctx(&dev, ContainerId("tf-serving"));

    workload::InferenceSpec spec;
    spec.request_rate_hz = rate;
    spec.kernel_per_request = Millis(20);
    spec.total_requests = static_cast<int>(rate * 120);  // 2 minutes
    spec.seed = 99;
    workload::InferenceJob job(spec);
    job.Start(&ctx, &sim, nullptr);
    sim.RunUntil(Seconds(120));
    nvml.Stop();

    table.AddRow({Cell(rate, 0), Cell(rate * 0.020, 2),
                  Cell(nvml.AverageUtilization(dev.uuid()), 3)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape (paper): GPU usage rises roughly linearly with the\n"
      "client request rate until the device saturates.\n");
  return 0;
}
