#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "k8s/cluster.hpp"
#include "metrics/prometheus.hpp"

namespace ks::metrics {

/// One service's SLO snapshot, produced by the serving frontend
/// (serving::ServiceFrontend::Sample). Plain data — ks_metrics stays
/// independent of the serving layer the same way it takes a SwapLookupFn
/// instead of the workload host.
struct ServiceSloSample {
  std::string service;
  double slo_s = 0.0;   // p99 target, seconds
  double p50_s = 0.0;   // observed percentiles over the service's lifetime
  double p99_s = 0.0;
  double p999_s = 0.0;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;            // rejected at the admission door
  std::uint64_t queued_retries = 0;  // admission kQueue round trips
  std::uint64_t violations = 0;      // served past the SLO
  std::uint64_t lost = 0;            // died with their replica
  std::uint64_t replicas_ready = 0;
  /// (violations + shed + lost) / arrived — a shed request IS a violated
  /// request from the client's perspective; admission trades a few of them
  /// for keeping the served ones inside the SLO.
  double violation_rate = 0.0;
};

/// Snapshot of the SLO-serving machinery: per-service latency percentiles
/// and request accounting, plus the daemon-side admission counters summed
/// over every node backend.
struct SloMetrics {
  std::vector<ServiceSloSample> services;
  std::uint64_t admission_sheds_total = 0;
  std::uint64_t admission_queued_total = 0;
};

/// Combines frontend-side samples with the cluster's daemon-side admission
/// counters (TokenBackend::admission_sheds / admission_queued, summed
/// across nodes).
SloMetrics CollectSloMetrics(k8s::Cluster& cluster,
                             std::vector<ServiceSloSample> samples);

/// Exports the snapshot as ks_slo_* gauges (per-service series carry a
/// `service` label).
void ExportSloMetrics(const SloMetrics& metrics,
                      PrometheusExporter& exporter);

}  // namespace ks::metrics
