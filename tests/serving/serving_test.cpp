#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/autoscaler.hpp"
#include "kubeshare/replicaset.hpp"
#include "metrics/slo.hpp"
#include "serving/arrivals.hpp"
#include "serving/service.hpp"
#include "workload/host.hpp"

namespace ks::serving {
namespace {

// ---- RateEnvelope ----------------------------------------------------------

TEST(RateEnvelopeTest, SteadyIsFlat) {
  const RateEnvelope env = RateEnvelope::Steady(120.0);
  EXPECT_DOUBLE_EQ(env.RateAt(Time{0}), 120.0);
  EXPECT_DOUBLE_EQ(env.RateAt(Seconds(1e6)), 120.0);
  EXPECT_DOUBLE_EQ(env.max_rate_hz(), 120.0);
}

TEST(RateEnvelopeTest, DiurnalSpansBaseToPeakAndWraps) {
  const Duration period = Seconds(60.0);
  const RateEnvelope env = RateEnvelope::Diurnal(40.0, 140.0, period);
  double lo = 1e18, hi = 0.0;
  for (int i = 0; i < 240; ++i) {
    const double r = env.RateAt(Seconds(i * 0.25));
    EXPECT_GE(r, 40.0 - 1e-9);
    EXPECT_LE(r, 140.0 + 1e-9);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_LT(lo, 55.0);   // trough reached (midpoint sampling stays near base)
  EXPECT_GT(hi, 125.0);  // crest reached
  // The majorant dominates every sampled rate.
  EXPECT_GE(env.max_rate_hz(), hi - 1e-9);
  // Wraps: the second period replays the first.
  EXPECT_DOUBLE_EQ(env.RateAt(Seconds(12.0)),
                   env.RateAt(Seconds(12.0) + period));
}

TEST(RateEnvelopeTest, FlashCrowdRampsUpAndBack) {
  const RateEnvelope env = RateEnvelope::FlashCrowd(
      50.0, 300.0, Seconds(20.0), /*ramp=*/Seconds(2.0), /*hold=*/Seconds(10.0));
  EXPECT_DOUBLE_EQ(env.RateAt(Seconds(5.0)), 50.0);
  EXPECT_DOUBLE_EQ(env.RateAt(Seconds(25.0)), 300.0);  // inside the hold
  EXPECT_DOUBLE_EQ(env.RateAt(Seconds(60.0)), 50.0);   // back to base
  const double mid_up = env.RateAt(Seconds(21.0));
  EXPECT_GT(mid_up, 50.0);
  EXPECT_LT(mid_up, 300.0);
  EXPECT_DOUBLE_EQ(env.max_rate_hz(), 300.0);
}

TEST(RateEnvelopeTest, ScaledMultipliesEveryRate) {
  const RateEnvelope env =
      RateEnvelope::Diurnal(40.0, 140.0, Seconds(60.0)).Scaled(2.0);
  EXPECT_GE(env.RateAt(Seconds(0.0)), 80.0 - 1e-9);
  EXPECT_DOUBLE_EQ(env.max_rate_hz(),
                   RateEnvelope::Diurnal(40.0, 140.0, Seconds(60.0))
                       .max_rate_hz() * 2.0);
}

TEST(ThinningSequenceTest, StrictlyIncreasingAndRateAccurate) {
  ThinningSequence seq(RateEnvelope::Steady(200.0), /*seed=*/9);
  Time prev{-1};
  std::uint64_t n = 0;
  for (;;) {
    const Time t = seq.Next();
    if (t >= Seconds(100.0)) break;
    ASSERT_GT(t, prev);
    prev = t;
    ++n;
  }
  // 200 rps over 100s = 20000 expected; Poisson sd ~141. 10 sds of slack.
  EXPECT_NEAR(static_cast<double>(n), 20000.0, 1400.0);
}

TEST(ThinningSequenceTest, SegmentCursorMatchesTheEnvelopeLookup) {
  // The same thinning written with RateEnvelope::RateAt's binary search:
  // the sequence's segment cursor must accept exactly the same candidates,
  // across the flash crowd's ramps and across many wraps of a short
  // diurnal period.
  const RateEnvelope envelopes[] = {
      RateEnvelope::FlashCrowd(30.0, 200.0, Seconds(4.0), Seconds(1.0),
                               Seconds(3.0)),
      RateEnvelope::Diurnal(20.0, 180.0, Seconds(2.0), /*steps=*/7),
  };
  for (const RateEnvelope& env : envelopes) {
    ThinningSequence seq(env, /*seed=*/23);
    Rng rng(23);
    const double max_rate = env.max_rate_hz();
    const Duration mean = Seconds(1.0 / max_rate);
    Time cursor{0};
    for (int i = 0; i < 5000; ++i) {
      Time want{0};
      for (;;) {
        cursor += rng.ExponentialInterarrival(mean);
        if (rng.Uniform(0.0, 1.0) * max_rate < env.RateAt(cursor)) {
          want = cursor;
          break;
        }
      }
      ASSERT_EQ(seq.Next(), want) << "arrival " << i;
    }
    EXPECT_GT(cursor, Seconds(20.0));  // many diurnal periods covered
  }
}

TEST(BatchedArrivalStreamTest, BatchesMatchReferenceArrivalsExactly) {
  const RateEnvelope env = RateEnvelope::FlashCrowd(
      30.0, 200.0, Seconds(4.0), Seconds(1.0), Seconds(3.0));
  const std::uint64_t seed = 17;
  const Time until = Seconds(12.0);

  std::vector<Time> ref;
  {
    sim::Simulation sim;
    BatchedArrivalStream gen(&sim, env, seed, until, Duration{0},
                             [&](const std::vector<Time>& batch) {
                               ref.insert(ref.end(), batch.begin(),
                                          batch.end());
                             });
    gen.Start();
    sim.RunUntil(Seconds(20.0));
    EXPECT_EQ(gen.engine_events(), gen.arrivals());
  }

  std::vector<Time> batched;
  std::uint64_t events = 0;
  {
    sim::Simulation sim;
    std::uint64_t max_batch = 0;
    BatchedArrivalStream gen(&sim, env, seed, until, Millis(10),
                             [&](const std::vector<Time>& batch) {
                               ASSERT_FALSE(batch.empty());
                               max_batch = std::max<std::uint64_t>(
                                   max_batch, batch.size());
                               for (Time t : batch) {
                                 // Delivered at the window end: arrivals are
                                 // in the past, and in order.
                                 EXPECT_LE(t, sim.Now());
                                 batched.push_back(t);
                               }
                             });
    gen.Start();
    sim.RunUntil(Seconds(20.0));
    events = gen.engine_events();
    EXPECT_EQ(gen.batches(), events);
    EXPECT_GT(max_batch, 1u);  // the flash crowd actually batched
  }

  // Identical arrival timestamps — the thinning core is shared.
  EXPECT_EQ(batched, ref);
  // And materially fewer engine events at flash-crowd rates.
  EXPECT_LT(events, ref.size());
}

TEST(BatchedArrivalStreamTest, ZeroWindowIsPerRequest) {
  const RateEnvelope env = RateEnvelope::Steady(100.0);
  sim::Simulation sim;
  std::uint64_t singletons = 0;
  BatchedArrivalStream gen(&sim, env, /*seed=*/3, Seconds(5.0), Duration{0},
                           [&](const std::vector<Time>& batch) {
                             EXPECT_EQ(batch.size(), 1u);
                             ++singletons;
                           });
  gen.Start();
  sim.RunUntil(Seconds(10.0));
  EXPECT_EQ(gen.arrivals(), singletons);
  EXPECT_EQ(gen.engine_events(), gen.arrivals());
}

// ---- ServiceFrontend on a live cluster -------------------------------------

struct Harness {
  k8s::Cluster cluster;
  kubeshare::KubeShare kubeshare;
  workload::WorkloadHost host;

  explicit Harness(k8s::ClusterConfig config)
      : cluster(config), kubeshare(&cluster), host(&cluster) {
    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());
  }

  kubeshare::SharePodReplicaSet::Spec ReplicaSpec(const std::string& name,
                                                  int replicas) {
    kubeshare::SharePodReplicaSet::Spec spec;
    spec.name = name;
    spec.replicas = replicas;
    spec.template_spec.gpu.gpu_request = 0.45;
    spec.template_spec.gpu.gpu_limit = 1.0;
    spec.template_spec.gpu.gpu_mem = 0.2;
    return spec;
  }

  /// Runs the sim until `n` replicas are serving. The pod-creation
  /// pipeline is seconds long by design (Fig 10 calibration), so tests
  /// that want steady-state behaviour wait it out before asserting.
  void AwaitReplicas(const ServiceFrontend& frontend, std::size_t n) {
    const Time deadline = cluster.sim().Now() + Seconds(20.0);
    while (frontend.ready_replicas() < n && cluster.sim().Now() < deadline) {
      cluster.sim().RunUntil(cluster.sim().Now() + Millis(250));
    }
    ASSERT_EQ(frontend.ready_replicas(), n);
  }
};

ServiceConfig SmallService() {
  ServiceConfig cfg;
  cfg.name = "svc";
  cfg.envelope = RateEnvelope::Steady(50.0);
  cfg.slo_p99 = Millis(250);
  cfg.until = Seconds(8.0);
  cfg.seed = 5;
  cfg.replica.kernel_per_request = Millis(10);
  cfg.replica.model_bytes = 256ull << 20;
  return cfg;
}

TEST(ServiceFrontendTest, ServesEveryArrivalAndDrains) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  Harness h(config);

  ServiceConfig cfg = SmallService();
  cfg.until = Seconds(25.0);
  ServiceFrontend frontend(&h.cluster, &h.host, cfg);
  kubeshare::SharePodReplicaSet rs(&h.kubeshare, h.ReplicaSpec("svc", 2));
  rs.SetReplicaHook(frontend.MakeReplicaHook());
  ASSERT_TRUE(rs.Start().ok());
  frontend.Start();

  // 50 rps across two 10ms replicas is underloaded: once the cold-start
  // backlog (arrivals buffered while the pods were still being created)
  // has drained, the sliding-window p99 sits near the service time.
  h.cluster.sim().RunUntil(Seconds(24.0));
  EXPECT_LT(frontend.ObservedP99Seconds(), 0.25);

  h.cluster.sim().RunUntil(Seconds(45.0));
  EXPECT_GT(frontend.arrived(), 300u);
  EXPECT_EQ(frontend.served(), frontend.arrived());
  EXPECT_EQ(frontend.shed(), 0u);  // admission off by default
  EXPECT_EQ(frontend.lost(), 0u);
  EXPECT_TRUE(frontend.Drained());
  EXPECT_EQ(frontend.ready_replicas(), 2u);
  EXPECT_EQ(frontend.digest().count(), frontend.served());
}

TEST(ServiceFrontendTest, ColdStartBuffersUntilFirstReplica) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  Harness h(config);

  ServiceConfig cfg = SmallService();
  cfg.until = Seconds(4.0);
  ServiceFrontend frontend(&h.cluster, &h.host, cfg);
  kubeshare::SharePodReplicaSet rs(&h.kubeshare, h.ReplicaSpec("svc", 2));
  rs.SetReplicaHook(frontend.MakeReplicaHook());

  frontend.Start();  // generator first; no replicas exist yet
  h.cluster.sim().RunUntil(Seconds(2.0));
  EXPECT_GT(frontend.arrived(), 0u);
  EXPECT_EQ(frontend.served(), 0u);
  EXPECT_FALSE(frontend.Drained());

  ASSERT_TRUE(rs.Start().ok());
  h.cluster.sim().RunUntil(Seconds(20.0));
  EXPECT_EQ(frontend.served(), frontend.arrived());
  EXPECT_TRUE(frontend.Drained());
}

TEST(ServiceFrontendTest, ScaleToZeroLosesOnlyInflight) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  Harness h(config);

  ServiceConfig cfg = SmallService();
  cfg.envelope = RateEnvelope::Steady(150.0);
  cfg.until = Seconds(3.0);
  cfg.replica.kernel_per_request = Millis(40);  // builds a backlog
  ServiceFrontend frontend(&h.cluster, &h.host, cfg);
  kubeshare::SharePodReplicaSet rs(&h.kubeshare, h.ReplicaSpec("svc", 2));
  rs.SetReplicaHook(frontend.MakeReplicaHook());
  ASSERT_TRUE(rs.Start().ok());
  frontend.Start();

  // Wait out the pod pipeline so Scale(0) tears down RUNNING replicas; by
  // then the 3 s of buffered arrivals have flushed into the replicas'
  // queues and most are still in flight (the backlog needs ~16 s to serve).
  h.AwaitReplicas(frontend, 2);
  if (testing::Test::HasFatalFailure()) return;
  const std::uint64_t arrived = frontend.arrived();
  ASSERT_GT(arrived, 0u);
  ASSERT_GT(arrived, frontend.served());  // backlog in flight
  rs.Scale(0);
  h.cluster.sim().RunUntil(Seconds(30.0));

  EXPECT_EQ(frontend.ready_replicas(), 0u);
  EXPECT_GT(frontend.lost(), 0u);
  EXPECT_EQ(frontend.arrived(), frontend.served() + frontend.lost());
  EXPECT_TRUE(frontend.Drained());
}

TEST(ServiceFrontendTest, DestroyedWithRequestsInFlightLeavesEngineSafe) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  Harness h(config);

  ServiceConfig cfg = SmallService();
  cfg.envelope = RateEnvelope::Steady(150.0);
  cfg.until = Seconds(20.0);
  cfg.replica.kernel_per_request = Millis(40);  // builds a backlog
  kubeshare::SharePodReplicaSet rs(&h.kubeshare, h.ReplicaSpec("svc", 2));
  auto frontend = std::make_unique<ServiceFrontend>(&h.cluster, &h.host, cfg);
  rs.SetReplicaHook(frontend->MakeReplicaHook());
  ASSERT_TRUE(rs.Start().ok());
  frontend->Start();
  h.AwaitReplicas(*frontend, 2);
  if (testing::Test::HasFatalFailure()) return;
  h.cluster.sim().RunUntil(h.cluster.sim().Now() + Seconds(1.0));
  ASSERT_GT(frontend->arrived(), frontend->served());  // requests in flight

  // The replicas keep serving the queued requests after their frontend is
  // gone; their served callbacks must not reach it. Scaling afterwards
  // starts and stops replicas whose hook outlived the frontend.
  frontend.reset();
  h.cluster.sim().RunUntil(h.cluster.sim().Now() + Seconds(10.0));
  rs.Scale(3);
  h.cluster.sim().RunUntil(h.cluster.sim().Now() + Seconds(10.0));
  rs.Scale(0);
  h.cluster.sim().RunUntil(h.cluster.sim().Now() + Seconds(10.0));
  EXPECT_EQ(h.host.RunningKubeShareJobs().size(), 0u);
}

TEST(ServiceFrontendTest, StartAfterStopResumesTheArrivalSequence) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  Harness h(config);

  // No replicas: every arrival is traced and buffered, nothing is served.
  ServiceConfig cfg = SmallService();
  cfg.until = Seconds(30.0);
  ServiceFrontend frontend(&h.cluster, &h.host, cfg);
  std::vector<Time> arrivals;
  frontend.SetTraceFn(
      [&](const char* what, Time arrival, Time, const std::string&) {
        if (std::string(what) == "arrive") arrivals.push_back(arrival);
      });
  frontend.Start();
  h.cluster.sim().RunUntil(Seconds(5.0));
  frontend.Stop();
  h.cluster.sim().RunUntil(Seconds(10.0));
  frontend.Start();
  frontend.Start();  // already running: a no-op
  h.cluster.sim().RunUntil(Seconds(15.0));

  // The uninterrupted sequence of the same envelope and seed, minus what
  // fell while the generator was stopped: nothing is replayed from t=0.
  ThinningSequence seq(cfg.envelope, cfg.seed);
  std::vector<Time> want;
  for (Time t = seq.Next(); t <= Seconds(15.0); t = seq.Next()) {
    if (t <= Seconds(5.0) || t >= Seconds(10.0)) want.push_back(t);
  }
  EXPECT_EQ(arrivals, want);
  EXPECT_EQ(frontend.arrived(), want.size());
}

TEST(ServiceFrontendTest, AdmissionShedPolicyShedsUnderOverload) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  config.backend.admission.enabled = true;
  config.backend.admission.policy = vgpu::AdmissionConfig::Policy::kShed;
  config.backend.admission.min_samples = 10;
  Harness h(config);

  ServiceConfig cfg = SmallService();
  cfg.envelope = RateEnvelope::Steady(100.0);
  cfg.slo_p99 = Millis(50);
  cfg.until = Seconds(6.0);
  cfg.replica.kernel_per_request = Millis(30);  // 1 replica caps at ~33 rps
  ServiceFrontend frontend(&h.cluster, &h.host, cfg);
  kubeshare::SharePodReplicaSet rs(&h.kubeshare, h.ReplicaSpec("svc", 1));
  rs.SetReplicaHook(frontend.MakeReplicaHook());
  ASSERT_TRUE(rs.Start().ok());
  frontend.Start();

  h.cluster.sim().RunUntil(Seconds(40.0));

  EXPECT_GT(frontend.shed(), 0u);
  EXPECT_EQ(frontend.arrived(), frontend.served() + frontend.shed());
  EXPECT_TRUE(frontend.Drained());
  // The daemon-side counters saw the same sheds.
  const metrics::SloMetrics slo =
      metrics::CollectSloMetrics(h.cluster, {frontend.Sample()});
  EXPECT_EQ(slo.admission_sheds_total, frontend.shed());
  EXPECT_EQ(slo.admission_queued_total, 0u);
}

TEST(ServiceFrontendTest, AdmissionQueuePolicyRetriesInsteadOfDropping) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  config.backend.admission.enabled = true;
  config.backend.admission.policy = vgpu::AdmissionConfig::Policy::kQueue;
  config.backend.admission.min_samples = 10;
  config.backend.admission.window = Seconds(2.0);
  Harness h(config);

  ServiceConfig cfg = SmallService();
  cfg.envelope = RateEnvelope::Steady(80.0);
  cfg.slo_p99 = Millis(50);
  // Arrivals must outlast the pod pipeline (~4-5 s): only requests that
  // reach the door AFTER the latency digest has warmed up can be queued.
  cfg.until = Seconds(12.0);
  cfg.replica.kernel_per_request = Millis(30);
  ServiceFrontend frontend(&h.cluster, &h.host, cfg);
  kubeshare::SharePodReplicaSet rs(&h.kubeshare, h.ReplicaSpec("svc", 1));
  rs.SetReplicaHook(frontend.MakeReplicaHook());
  ASSERT_TRUE(rs.Start().ok());
  frontend.Start();

  h.cluster.sim().RunUntil(Seconds(120.0));

  EXPECT_GT(frontend.queued_retries(), 0u);
  EXPECT_EQ(frontend.shed(), 0u);
  // Queueing holds requests at the door until the window ages out, then
  // admits them: nothing is dropped.
  EXPECT_EQ(frontend.arrived(), frontend.served());
  EXPECT_TRUE(frontend.Drained());
}

TEST(ServiceFrontendTest, SloSampleExportsKsSloFamily) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  Harness h(config);

  ServiceFrontend frontend(&h.cluster, &h.host, SmallService());
  kubeshare::SharePodReplicaSet rs(&h.kubeshare, h.ReplicaSpec("svc", 2));
  rs.SetReplicaHook(frontend.MakeReplicaHook());
  ASSERT_TRUE(rs.Start().ok());
  frontend.Start();
  h.cluster.sim().RunUntil(Seconds(30.0));

  const metrics::SloMetrics slo =
      metrics::CollectSloMetrics(h.cluster, {frontend.Sample()});
  ASSERT_EQ(slo.services.size(), 1u);
  const metrics::ServiceSloSample& s = slo.services[0];
  EXPECT_EQ(s.service, "svc");
  EXPECT_DOUBLE_EQ(s.slo_s, 0.25);
  EXPECT_GT(s.p50_s, 0.0);
  EXPECT_GE(s.p99_s, s.p50_s);
  EXPECT_GE(s.p999_s, s.p99_s);
  EXPECT_EQ(s.arrived, frontend.arrived());
  // Cold-start latencies blow the SLO for the buffered arrivals, so the
  // rate is nonzero — assert the accounting identity instead of a value.
  EXPECT_DOUBLE_EQ(s.violation_rate,
                   static_cast<double>(s.violations + s.shed + s.lost) /
                       static_cast<double>(s.arrived));

  metrics::PrometheusExporter exporter;
  metrics::ExportSloMetrics(slo, exporter);
  std::ostringstream os;
  exporter.Write(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("ks_slo_p99_seconds{service=\"svc\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ks_slo_violation_rate{service=\"svc\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ks_slo_admission_sheds_total"), std::string::npos);
}

// ---- SloAutoscaler ---------------------------------------------------------

struct AutoscalerHarness : Harness {
  kubeshare::SharePodReplicaSet rs;
  double p99 = 0.0;  // scripted probe reading

  AutoscalerHarness(k8s::ClusterConfig config, int replicas)
      : Harness(config), rs(&kubeshare, ReplicaSpec("svc", replicas)) {
    rs.SetReplicaHook([this](const std::string& name) {
      host.ExpectJob(name, [] {
        workload::RequestServerSpec spec;
        spec.model_bytes = 64ull << 20;
        return std::make_unique<workload::RequestServerJob>(
            spec, workload::RequestServerJob::LifecycleFn{});
      });
    });
    EXPECT_TRUE(rs.Start().ok());
  }

  kubeshare::AutoscalerConfig Config() {
    kubeshare::AutoscalerConfig cfg;
    cfg.slo_p99 = Millis(250);
    cfg.min_replicas = 1;
    cfg.max_replicas = 6;
    cfg.period = Seconds(1.0);
    cfg.up_cooldown = Seconds(2.0);
    cfg.down_cooldown = Seconds(5.0);
    return cfg;
  }

  std::unique_ptr<kubeshare::SloAutoscaler> MakeScaler(
      kubeshare::AutoscalerConfig cfg) {
    return std::make_unique<kubeshare::SloAutoscaler>(
        &cluster.sim(), cluster.tick_hub(), &rs, cfg, [this] { return p99; });
  }
};

TEST(SloAutoscalerTest, ScalesUpOnBreachWithCooldownAndClamp) {
  k8s::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  AutoscalerHarness h(config, 2);
  auto scaler = h.MakeScaler(h.Config());
  ASSERT_TRUE(scaler->Start().ok());

  h.p99 = 0.30;  // above 0.85 * 0.25s
  h.cluster.sim().RunUntil(Seconds(1.5));  // one evaluation
  EXPECT_EQ(h.rs.desired(), 4);            // +up_step
  h.cluster.sim().RunUntil(Seconds(2.5));  // next eval inside up_cooldown
  EXPECT_EQ(h.rs.desired(), 4);
  h.cluster.sim().RunUntil(Seconds(10.0));
  EXPECT_EQ(h.rs.desired(), 6);  // clamped at max_replicas
  EXPECT_GE(scaler->scale_ups(), 2u);
  EXPECT_EQ(scaler->scale_downs(), 0u);
}

TEST(SloAutoscalerTest, ScalesDownSlowlyInsideHeadroom) {
  k8s::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  AutoscalerHarness h(config, 4);
  auto scaler = h.MakeScaler(h.Config());
  ASSERT_TRUE(scaler->Start().ok());

  h.p99 = 0.02;  // far under 0.40 * 0.25s
  h.cluster.sim().RunUntil(Seconds(30.0));
  EXPECT_EQ(h.rs.desired(), 1);  // stepped down to min, 1 per down_cooldown
  EXPECT_GE(scaler->scale_downs(), 3u);
}

TEST(SloAutoscalerTest, DeadBandHolds) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  AutoscalerHarness h(config, 2);
  auto scaler = h.MakeScaler(h.Config());
  ASSERT_TRUE(scaler->Start().ok());

  h.p99 = 0.15;  // between 0.40 * slo = 0.10 and 0.85 * slo = 0.2125
  h.cluster.sim().RunUntil(Seconds(20.0));
  EXPECT_EQ(h.rs.desired(), 2);
  EXPECT_EQ(scaler->scale_ups(), 0u);
  EXPECT_EQ(scaler->scale_downs(), 0u);
  EXPECT_GT(scaler->evaluations(), 10u);
}

TEST(SloAutoscalerTest, ColdStartProbeProducesNoDecision) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  AutoscalerHarness h(config, 2);
  auto scaler = h.MakeScaler(h.Config());
  ASSERT_TRUE(scaler->Start().ok());

  h.p99 = 0.0;  // no samples yet
  h.cluster.sim().RunUntil(Seconds(10.0));
  EXPECT_EQ(h.rs.desired(), 2);
  EXPECT_GT(scaler->evaluations(), 5u);
}

TEST(SloAutoscalerTest, StartClampsOutOfBoundsReplicaCount) {
  k8s::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  AutoscalerHarness h(config, 8);  // above max_replicas = 6
  auto scaler = h.MakeScaler(h.Config());
  ASSERT_TRUE(scaler->Start().ok());
  EXPECT_EQ(h.rs.desired(), 6);
}

TEST(SloAutoscalerTest, RejectsBadConfig) {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  AutoscalerHarness h(config, 1);
  kubeshare::AutoscalerConfig bad = h.Config();
  bad.min_replicas = 5;
  bad.max_replicas = 2;
  auto scaler = h.MakeScaler(bad);
  EXPECT_FALSE(scaler->Start().ok());
}

TEST(SloAutoscalerTest, CrashStopsEvaluationRestartResumes) {
  k8s::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  AutoscalerHarness h(config, 2);
  auto scaler = h.MakeScaler(h.Config());
  ASSERT_TRUE(scaler->Start().ok());

  h.p99 = 0.30;
  h.cluster.sim().RunUntil(Seconds(1.5));
  EXPECT_EQ(h.rs.desired(), 4);

  scaler->Crash();
  EXPECT_TRUE(scaler->down());
  const std::uint64_t evals = scaler->evaluations();
  h.cluster.sim().RunUntil(Seconds(6.0));
  EXPECT_EQ(scaler->evaluations(), evals);  // dead controllers don't evaluate
  EXPECT_EQ(h.rs.desired(), 4);            // the store survives the crash

  scaler->Restart();
  h.cluster.sim().RunUntil(Seconds(20.0));
  // Resumed from the surviving desired count and kept scaling to max.
  EXPECT_EQ(h.rs.desired(), 6);
}

}  // namespace
}  // namespace ks::serving
