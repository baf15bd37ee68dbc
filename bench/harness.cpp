#include "harness.hpp"

#include <algorithm>
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

  // Average utilization across active GPUs, averaged over the samples in
  // which at least one GPU was active (incremental "ever active" scan).
  std::vector<const std::vector<gpu::NvmlSample>*> series;
  std::size_t samples = 0;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    for (const auto& dev : cluster.node(n).gpus) {
      series.push_back(&cluster.nvml().SamplesFor(dev->uuid()));
      samples = std::max(samples, series.back()->size());
    }
  }
  std::vector<bool> ever_active(series.size(), false);
  double util_total = 0.0;
  std::size_t util_samples = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    double total = 0.0;
    int active = 0;
    for (std::size_t d = 0; d < series.size(); ++d) {
      if (i >= series[d]->size()) continue;
      const double u = (*series[d])[i].gpu_util;
      if (u > 0.0) ever_active[d] = true;
      if (ever_active[d]) {
        total += u;
        ++active;
      }
    }
    if (active > 0) {
      util_total += total / active;
      ++util_samples;
    }
  }
  if (util_samples > 0) {
    result.avg_active_utilization = util_total / util_samples;
  }
  return result;
}

}  // namespace ks::bench
