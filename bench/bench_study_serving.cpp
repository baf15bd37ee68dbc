// SLO-driven inference serving study (ROADMAP item 4): batched arrival
// streams, streaming latency digests, daemon-side admission control and
// the metrics-driven horizontal autoscaler, measured together.
//
// Part 1 — serving rows: one SLO-bound service (10 ms/request replicas,
// p99 target 250 ms) is driven through three traffic patterns (steady,
// diurnal, flash crowd) in two provisioning modes:
//   static  two replicas, no admission control — yesterday's capacity
//           planning;
//   auto    the SloAutoscaler scales 1..8 replicas on observed p99
//           headroom while the token daemon sheds at the door once p99
//           crosses 90% of the SLO.
// The gate (scripts/check_bench_json.py, BENCH_serving.json): on the
// flash crowd, auto's SLO-violation rate (violations + shed + lost over
// arrivals) beats static's.
//
// Part 2 — arrival rows: the load generator alone on a bare engine, at
// 0.1 rps per simulated client, swept to one million clients. Per-request
// generation costs one engine event per arrival; the batched stream costs
// one per non-empty 10 ms window. The gate: >= 5x fewer events at the
// million-client point (the measured gap is orders of magnitude).

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness.hpp"
#include "json_report.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/autoscaler.hpp"
#include "kubeshare/kubeshare.hpp"
#include "kubeshare/replicaset.hpp"
#include "serving/arrivals.hpp"
#include "serving/service.hpp"
#include "workload/host.hpp"

namespace {

using namespace ks;

const Time kArrivalsStop = Seconds(60.0);
const Time kHorizon = Seconds(240.0);
constexpr double kRpsPerClient = 0.1;

struct Pattern {
  const char* name;
  serving::RateEnvelope envelope;
  double peak_hz;
};

std::vector<Pattern> Patterns() {
  return {
      {"steady", serving::RateEnvelope::Steady(60.0), 60.0},
      {"diurnal",
       serving::RateEnvelope::Diurnal(40.0, 140.0, Seconds(40.0)), 140.0},
      {"flash-crowd",
       serving::RateEnvelope::FlashCrowd(50.0, 300.0, Seconds(20.0),
                                         Seconds(2.0), Seconds(25.0)),
       300.0},
  };
}

struct ServingResult {
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t lost = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double violation_rate = 0.0;
  int replicas_peak = 0;
  std::uint64_t total_events = 0;
};

ServingResult RunServing(const Pattern& pattern, bool autoscale) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.gpus_per_node = 2;
  if (autoscale) {
    ccfg.backend.admission.enabled = true;
    ccfg.backend.admission.policy = vgpu::AdmissionConfig::Policy::kShed;
  }
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  (void)cluster.Start();
  (void)kubeshare.Start();

  serving::ServiceConfig cfg;
  cfg.name = "svc";
  cfg.envelope = pattern.envelope;
  cfg.clients =
      static_cast<std::uint64_t>(pattern.peak_hz / kRpsPerClient);
  cfg.slo_p99 = Millis(250);
  cfg.batch_window = Millis(10);
  cfg.until = kArrivalsStop;
  cfg.seed = 7;
  cfg.replica.kernel_per_request = Millis(10);
  cfg.replica.model_bytes = 256ull << 20;
  serving::ServiceFrontend frontend(&cluster, &host, cfg);

  kubeshare::SharePodReplicaSet::Spec spec;
  spec.name = "svc";
  spec.replicas = 2;
  spec.template_spec.gpu.gpu_request = 0.45;
  spec.template_spec.gpu.gpu_limit = 1.0;
  spec.template_spec.gpu.gpu_mem = 0.15;
  kubeshare::SharePodReplicaSet rs(&kubeshare, spec);
  rs.SetReplicaHook(frontend.MakeReplicaHook());
  (void)rs.Start();

  std::unique_ptr<kubeshare::SloAutoscaler> scaler;
  if (autoscale) {
    kubeshare::AutoscalerConfig acfg;
    acfg.slo_p99 = cfg.slo_p99;
    acfg.min_replicas = 1;
    acfg.max_replicas = 8;
    scaler = std::make_unique<kubeshare::SloAutoscaler>(
        &cluster.sim(), cluster.tick_hub(), &rs, acfg,
        frontend.MakeAutoscalerProbe());
    (void)scaler->Start();
  }
  frontend.Start();

  ServingResult r;
  const Duration slice = Seconds(1.0);
  while (cluster.sim().Now() < kHorizon) {
    cluster.sim().RunUntil(cluster.sim().Now() + slice);
    r.replicas_peak = std::max(r.replicas_peak, rs.desired());
    if (cluster.sim().Now() > kArrivalsStop && frontend.Drained()) break;
  }

  const metrics::ServiceSloSample s = frontend.Sample();
  r.arrived = s.arrived;
  r.served = s.served;
  r.shed = s.shed;
  r.lost = s.lost;
  r.p50_ms = s.p50_s * 1e3;
  r.p99_ms = s.p99_s * 1e3;
  r.p999_ms = s.p999_s * 1e3;
  r.violation_rate = s.violation_rate;
  r.total_events = cluster.sim().lifetime_events();
  return r;
}

struct ArrivalResult {
  std::uint64_t arrivals = 0;
  std::uint64_t engine_events = 0;
  double events_per_request = 0.0;
  std::uint64_t total_events = 0;
};

ArrivalResult RunArrivalScaling(std::uint64_t clients, bool batched) {
  const serving::RateEnvelope env =
      serving::RateEnvelope::Steady(static_cast<double>(clients) *
                                    kRpsPerClient);
  const Time until = Seconds(10.0);
  sim::Simulation sim;
  // A zero window is per-request generation: one event per arrival.
  serving::BatchedArrivalStream gen(
      &sim, env, /*seed=*/3, until, batched ? Millis(10) : Duration{0},
      [](const std::vector<Time>&) {});
  gen.Start();
  sim.RunUntil(Seconds(20.0));
  ArrivalResult r;
  r.arrivals = gen.arrivals();
  r.engine_events = gen.engine_events();
  r.events_per_request =
      r.arrivals == 0 ? 0.0
                      : static_cast<double>(r.engine_events) /
                            static_cast<double>(r.arrivals);
  r.total_events = sim.lifetime_events();
  return r;
}

}  // namespace

int main() {
  bench::Banner(
      "bench_study_serving: SLO serving at internet scale",
      "batched arrivals + latency digests + admission + autoscaler "
      "(ROADMAP item 4)");

  std::cout << "\n2 nodes x 2 GPUs, 10 ms/request replicas, p99 SLO 250 ms. "
               "\"static\" holds 2\nreplicas; \"auto\" scales 1..8 on "
               "observed p99 headroom and sheds at the\ndoor past 90% of "
               "the SLO. Arrivals stop at 60 s; runs drain.\n\n";

  Table table({"pattern", "mode", "arrived", "served", "shed", "lost",
               "p50 (ms)", "p99 (ms)", "p99.9 (ms)", "viol rate",
               "replicas pk"});
  JsonValue report = bench::MakeReport("serving");
  for (const Pattern& pattern : Patterns()) {
    for (const bool autoscale : {false, true}) {
      const ServingResult r = RunServing(pattern, autoscale);
      const char* mode = autoscale ? "auto" : "static";
      table.AddRow({pattern.name, mode,
                    Cell(static_cast<std::int64_t>(r.arrived)),
                    Cell(static_cast<std::int64_t>(r.served)),
                    Cell(static_cast<std::int64_t>(r.shed)),
                    Cell(static_cast<std::int64_t>(r.lost)),
                    Cell(r.p50_ms, 1), Cell(r.p99_ms, 1),
                    Cell(r.p999_ms, 1), Cell(r.violation_rate, 4),
                    Cell(static_cast<std::int64_t>(r.replicas_peak))});
      JsonValue row = JsonValue::Object();
      row.Set("pattern", std::string(pattern.name));
      row.Set("mode", std::string(mode));
      row.Set("slo_ms", 250.0);
      row.Set("clients", static_cast<std::int64_t>(
                             pattern.peak_hz / kRpsPerClient));
      row.Set("arrived", static_cast<std::int64_t>(r.arrived));
      row.Set("served", static_cast<std::int64_t>(r.served));
      row.Set("shed", static_cast<std::int64_t>(r.shed));
      row.Set("lost", static_cast<std::int64_t>(r.lost));
      row.Set("p50_ms", r.p50_ms);
      row.Set("p99_ms", r.p99_ms);
      row.Set("p999_ms", r.p999_ms);
      row.Set("slo_violation_rate", r.violation_rate);
      row.Set("replicas_peak", static_cast<std::int64_t>(r.replicas_peak));
      row.Set("total_events", static_cast<std::int64_t>(r.total_events));
      bench::AddRow(report, std::move(row));
    }
  }
  table.Print(std::cout);

  std::cout << "\nArrival-stream scaling: 0.1 rps per client for 10 s on a "
               "bare engine.\nPer-request generation costs one event per "
               "arrival; batching costs one\nper non-empty 10 ms window "
               "regardless of client count.\n\n";

  Table scaling({"clients", "mode", "arrivals", "engine events",
                 "events/request"});
  for (const std::uint64_t clients :
       {1000ull, 10000ull, 100000ull, 1000000ull}) {
    for (const bool batched : {false, true}) {
      const ArrivalResult r = RunArrivalScaling(clients, batched);
      const char* mode = batched ? "batched" : "per-request";
      scaling.AddRow({Cell(static_cast<std::int64_t>(clients)), mode,
                      Cell(static_cast<std::int64_t>(r.arrivals)),
                      Cell(static_cast<std::int64_t>(r.engine_events)),
                      Cell(r.events_per_request, 5)});
      JsonValue row = JsonValue::Object();
      row.Set("pattern", std::string("arrivals"));
      row.Set("mode", std::string(mode));
      row.Set("clients", static_cast<std::int64_t>(clients));
      row.Set("arrivals", static_cast<std::int64_t>(r.arrivals));
      row.Set("engine_events",
              static_cast<std::int64_t>(r.engine_events));
      row.Set("events_per_request", r.events_per_request);
      row.Set("total_events", static_cast<std::int64_t>(r.total_events));
      bench::AddRow(report, std::move(row));
    }
  }
  scaling.Print(std::cout);

  std::cout << "\nExpected shape: static provisioning rides out steady and "
               "diurnal but\nmelts on the flash crowd (p99 explodes, "
               "violation rate spikes); auto\nabsorbs it by scaling toward 8 "
               "replicas and shedding the residual. The\nbatched generator's "
               "events/request collapses toward zero as clients\ngrow "
               "(gate: >= 5x fewer events than per-request at 1M "
               "clients).\n";
  std::cout << "\nwrote " << bench::WriteReport(report) << "\n";
  return 0;
}
