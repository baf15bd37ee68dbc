#include "metrics/cluster_metrics.hpp"

#include <map>

#include "metrics/recovery.hpp"

namespace ks::metrics {

void ExportClusterMetrics(k8s::Cluster& cluster,
                          kubeshare::KubeShare* kubeshare,
                          PrometheusExporter& exporter) {
  const Time now = cluster.sim().Now();

  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    auto& node = cluster.node(n);
    for (auto& dev : node.gpus) {
      dev->utilization().Flush(now);
      const PrometheusExporter::Labels labels{{"uuid", dev->uuid().value()},
                                              {"node", node.name}};
      exporter.Gauge("ks_gpu_busy_seconds_total",
                     "Cumulative device busy time", labels,
                     ToSeconds(dev->utilization().TotalBusy()));
      exporter.Gauge("ks_gpu_memory_used_fraction",
                     "Fraction of device memory allocated", labels,
                     static_cast<double>(dev->used_memory()) /
                         static_cast<double>(dev->spec().memory_bytes));
    }
  }

  // Event-engine health: how much the shared sampler tick compresses the
  // schedule and how many deadlines the token daemons hold. Pull-at-read-
  // time by construction — these are plain counter reads, no sampling
  // events of their own.
  exporter.Gauge("ks_sim_lifetime_events",
                 "Engine events scheduled since simulation start", {},
                 static_cast<double>(cluster.sim().lifetime_events()));
  exporter.Gauge("ks_sim_pending_events",
                 "Engine events currently scheduled", {},
                 static_cast<double>(cluster.sim().pending()));
  exporter.Gauge("ks_sampler_hub_fires",
                 "Instrument callbacks delivered by the shared tick", {},
                 static_cast<double>(cluster.tick_hub()->fires()));
  exporter.Gauge("ks_sampler_hub_ticks",
                 "Engine events the shared tick consumed", {},
                 static_cast<double>(cluster.tick_hub()->ticks()));
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    auto& node = cluster.node(n);
    exporter.Gauge("ks_token_timers_pending",
                   "Deadlines the node's token daemon has armed",
                   {{"node", node.name}},
                   static_cast<double>(node.token_backend->pending_timers()));
  }

  if (cluster.config().spatial.enabled) {
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      auto& node = cluster.node(n);
      for (auto& dev : node.gpus) {
        exporter.Gauge(
            "ks_spatial_concurrent_tokens",
            "Containers holding a compute token on the device right now",
            {{"uuid", dev->uuid().value()}, {"node", node.name}},
            static_cast<double>(
                node.token_backend->ActiveHolders(dev->uuid())));
      }
    }
  }

  std::map<std::string, int> pods_by_phase;
  for (const k8s::Pod& pod : cluster.api().pods().List()) {
    ++pods_by_phase[k8s::PodPhaseName(pod.status.phase)];
  }
  for (const auto& [phase, count] : pods_by_phase) {
    exporter.Gauge("ks_pods", "Pod count by phase", {{"phase", phase}},
                   count);
  }

  ExportRecoveryMetrics(CollectRecoveryMetrics(cluster, kubeshare), exporter);

  if (kubeshare == nullptr) return;

  std::map<std::string, int> vgpus_by_state;
  for (const kubeshare::VgpuInfo* dev : kubeshare->pool().List()) {
    ++vgpus_by_state[kubeshare::VgpuStateName(dev->state)];
    exporter.Gauge("ks_vgpu_used_util",
                   "Committed compute fraction (sum of gpu_requests)",
                   {{"id", dev->id.value()}, {"node", dev->node}},
                   dev->used_util);
    if (kubeshare->pool().spatial_enabled() && dev->slices.groups() > 0) {
      exporter.Gauge("ks_spatial_slice_occupancy",
                     "Fraction of the device's SM groups assigned to slices",
                     {{"id", dev->id.value()}, {"node", dev->node}},
                     static_cast<double>(dev->slices.UsedGroups()) /
                         static_cast<double>(dev->slices.groups()));
    }
  }
  if (kubeshare->pool().spatial_enabled()) {
    exporter.Gauge("ks_spatial_fragmentation_ratio",
                   "Pool-wide slice fragmentation (1 - largest free "
                   "run / free groups, aggregated)",
                   {}, kubeshare->pool().FragmentationRatio());
  }
  for (const auto& [state, count] : vgpus_by_state) {
    exporter.Gauge("ks_vgpu_pool_size", "vGPU count by lifecycle state",
                   {{"state", state}}, count);
  }

  std::map<std::string, int> sharepods_by_phase;
  for (const kubeshare::SharePod& sp : kubeshare->sharepods().List()) {
    ++sharepods_by_phase[kubeshare::SharePodPhaseName(sp.status.phase)];
  }
  for (const auto& [phase, count] : sharepods_by_phase) {
    exporter.Gauge("ks_sharepods", "SharePod count by phase",
                   {{"phase", phase}}, count);
  }
  exporter.Gauge("ks_vgpus_created_total", "vGPU acquisitions", {},
                 static_cast<double>(kubeshare->devmgr().vgpus_created()));
  exporter.Gauge("ks_vgpus_released_total", "vGPU releases", {},
                 static_cast<double>(kubeshare->devmgr().vgpus_released()));
}

}  // namespace ks::metrics
