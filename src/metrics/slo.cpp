#include "metrics/slo.hpp"

namespace ks::metrics {

SloMetrics CollectSloMetrics(k8s::Cluster& cluster,
                             std::vector<ServiceSloSample> samples) {
  SloMetrics out;
  out.services = std::move(samples);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const vgpu::TokenBackend* backend = cluster.node(i).token_backend.get();
    if (backend == nullptr) continue;
    out.admission_sheds_total += backend->admission_sheds();
    out.admission_queued_total += backend->admission_queued();
  }
  return out;
}

void ExportSloMetrics(const SloMetrics& metrics,
                      PrometheusExporter& exporter) {
  for (const ServiceSloSample& s : metrics.services) {
    const PrometheusExporter::Labels labels{{"service", s.service}};
    exporter.Gauge("ks_slo_target_seconds", "p99 latency SLO of the service",
                   labels, s.slo_s);
    exporter.Gauge("ks_slo_p50_seconds", "observed p50 request latency",
                   labels, s.p50_s);
    exporter.Gauge("ks_slo_p99_seconds", "observed p99 request latency",
                   labels, s.p99_s);
    exporter.Gauge("ks_slo_p999_seconds", "observed p99.9 request latency",
                   labels, s.p999_s);
    exporter.Gauge("ks_slo_requests_total", "client requests arrived", labels,
                   static_cast<double>(s.arrived));
    exporter.Gauge("ks_slo_served_total", "requests served to completion",
                   labels, static_cast<double>(s.served));
    exporter.Gauge("ks_slo_shed_total",
                   "requests rejected at the admission door", labels,
                   static_cast<double>(s.shed));
    exporter.Gauge("ks_slo_queued_retries_total",
                   "admission queue-policy retry round trips", labels,
                   static_cast<double>(s.queued_retries));
    exporter.Gauge("ks_slo_violations_total", "requests served past the SLO",
                   labels, static_cast<double>(s.violations));
    exporter.Gauge("ks_slo_lost_total",
                   "requests that died with their replica", labels,
                   static_cast<double>(s.lost));
    exporter.Gauge("ks_slo_replicas_ready", "replicas accepting requests",
                   labels, static_cast<double>(s.replicas_ready));
    exporter.Gauge("ks_slo_violation_rate",
                   "(violations + shed + lost) / arrived", labels,
                   s.violation_rate);
  }
  exporter.Gauge("ks_slo_admission_sheds_total",
                 "daemon-side shed decisions across all node backends", {},
                 static_cast<double>(metrics.admission_sheds_total));
  exporter.Gauge("ks_slo_admission_queued_total",
                 "daemon-side queue decisions across all node backends", {},
                 static_cast<double>(metrics.admission_queued_total));
}

}  // namespace ks::metrics
