#include "harness.hpp"

#include <cstdio>

#include "common/stats.hpp"
#include "k8s/resources.hpp"

namespace ks::bench {

void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s — KubeShare (HPDC'20)\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

RunResult RunWorkload(const RunOptions& options) {
  k8s::Cluster cluster(options.cluster);
  std::unique_ptr<kubeshare::KubeShare> kubeshare;
  if (options.use_kubeshare) {
    kubeshare = std::make_unique<kubeshare::KubeShare>(&cluster,
                                                       options.kubeshare);
  }
  workload::WorkloadHost host(&cluster);
  workload::WorkloadDriver driver(
      &cluster, &host,
      options.use_kubeshare ? workload::WorkloadDriver::Mode::kKubeShare
                            : workload::WorkloadDriver::Mode::kNative,
      kubeshare.get(), options.workload);

  if (!cluster.Start().ok()) return {};
  if (kubeshare != nullptr && !kubeshare->Start().ok()) return {};

  // GPUs-held probe: vGPU pool size under KubeShare; GPU-consuming bound
  // pods under native Kubernetes. Rides the cluster's shared sampler tick
  // with the NVML poll.
  auto held_probe = [&]() -> double {
    if (kubeshare != nullptr) {
      return static_cast<double>(kubeshare->pool().size());
    }
    double held = 0;
    cluster.api().pods().ForEach([&held](const k8s::Pod& p) {
      if (p.terminal() || !p.scheduled()) return;
      held += static_cast<double>(
          p.spec.requests.Get(k8s::kResourceNvidiaGpu));
    });
    return held;
  };
  metrics::PeriodicSampler gpus_held(cluster.tick_hub(), Seconds(1),
                                     held_probe);
  gpus_held.Start();
  cluster.nvml().Start();

  if (options.on_start) options.on_start(cluster, kubeshare.get());

  driver.Start();
  // Run in slices until the workload drains or the horizon passes.
  const Duration slice = Seconds(10);
  Time deadline = cluster.sim().Now() + options.horizon;
  while (!driver.AllDone() && cluster.sim().Now() < deadline) {
    cluster.sim().RunUntil(cluster.sim().Now() + slice);
  }
  gpus_held.Stop();
  cluster.nvml().Stop();

  RunResult result;
  result.completed = host.completed();
  result.failed = host.failed();
  result.makespan = driver.Makespan();
  result.jobs_per_minute = driver.JobsPerMinute();
  result.mean_gpus_held = gpus_held.MeanValue();
  result.peak_gpus_held = gpus_held.MaxValue();
  result.recovery = metrics::CollectRecoveryMetrics(cluster, kubeshare.get());
  result.job_restarts = host.restarts();
  result.total_events = cluster.sim().lifetime_events();

  std::vector<double> jct_s;
  jct_s.reserve(host.records().size());
  for (const auto& [name, rec] : host.records()) {
    jct_s.push_back(
        ToSeconds((rec.has_finished ? rec.finished : deadline) -
                  rec.submitted));
  }
  result.jct_p50_s = Percentile(jct_s, 50);
  result.jct_p99_s = Percentile(jct_s, 99);

  result.avg_active_utilization = cluster.nvml().MeanActiveUtilization();
  return result;
}

}  // namespace ks::bench
