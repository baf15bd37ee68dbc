// Whole-cluster serving pin: one small SLO service behind daemon admission
// (shed policy) and an SloAutoscaler, hit by a flash crowd. Its kernel,
// token, NVML and request traces plus counters must match
// tests/golden/device.golden, recorded from the per-kernel reference
// engine. Every request's completion must also reach the frontend at the
// instant its kernel retires on the device: the frontend stamps the
// daemon's admission digest and the autoscaler window with the current
// time, so a completion delivered late would shift what admission and
// scaling decide.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "k8s/cluster.hpp"
#include "kubeshare/autoscaler.hpp"
#include "kubeshare/kubeshare.hpp"
#include "kubeshare/replicaset.hpp"
#include "serving/service.hpp"
#include "support/golden.hpp"
#include "workload/host.hpp"

namespace ks::serving {
namespace {

struct ServingRun {
  /// Cluster and request trace digests plus every serving counter.
  std::string summary;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t scale_ups = 0;
  /// Completions that fired with no serve kernel retiring at that instant,
  /// or that report a finish other than the current time.
  std::uint64_t late_deliveries = 0;
};

ServingRun RunFlashCrowdCluster() {
  ServingRun run;
  // Serve kernels retired on the device and not yet matched to a
  // completion, by finish time.
  std::map<Time, int> retired;
  golden::ClusterDigests traces;
  golden::TraceDigest requests;
  std::ostringstream out;
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 1;
    ccfg.gpus_per_node = 2;
    ccfg.backend.admission.enabled = true;
    ccfg.backend.admission.policy = vgpu::AdmissionConfig::Policy::kShed;
    ccfg.backend.admission.min_samples = 10;
    k8s::Cluster cluster(ccfg);
    traces.Attach(cluster, [&retired](const gpu::KernelTraceEvent& e) {
      if (e.name == "serve") ++retired[e.finish];
    });
    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);
    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());
    cluster.nvml().Start();
    sim::Simulation& sim = cluster.sim();

    ServiceConfig cfg;
    cfg.name = "svc";
    cfg.envelope = RateEnvelope::FlashCrowd(30.0, 150.0, Seconds(10.0),
                                            Seconds(1.0), Seconds(5.0));
    cfg.slo_p99 = Millis(100);
    cfg.until = Seconds(25.0);
    cfg.seed = 17;
    cfg.replica.kernel_per_request = Millis(10);
    cfg.replica.model_bytes = 256ull << 20;
    ServiceFrontend frontend(&cluster, &host, cfg);
    frontend.SetTraceFn([&](const char* what, Time arrival, Time when,
                            const std::string& replica) {
      if (std::strcmp(what, "serve") == 0) {
        const auto it = retired.find(sim.Now());
        if (when != sim.Now() || it == retired.end() || it->second == 0) {
          ++run.late_deliveries;
        } else {
          --it->second;
        }
      }
      requests.Add(std::string(what) + " " + std::to_string(arrival.count()) +
                   " " + std::to_string(when.count()) + " " + replica);
    });

    kubeshare::SharePodReplicaSet::Spec spec;
    spec.name = "svc";
    spec.replicas = 1;
    spec.template_spec.gpu.gpu_request = 0.45;
    spec.template_spec.gpu.gpu_limit = 1.0;
    spec.template_spec.gpu.gpu_mem = 0.15;
    kubeshare::SharePodReplicaSet rs(&kubeshare, spec);
    rs.SetReplicaHook(frontend.MakeReplicaHook());
    EXPECT_TRUE(rs.Start().ok());

    kubeshare::AutoscalerConfig acfg;
    acfg.slo_p99 = cfg.slo_p99;
    acfg.min_replicas = 1;
    acfg.max_replicas = 4;
    kubeshare::SloAutoscaler scaler(&sim, cluster.tick_hub(), &rs, acfg,
                                    frontend.MakeAutoscalerProbe());
    EXPECT_TRUE(scaler.Start().ok());
    frontend.Start();

    sim.RunUntil(Seconds(40.0));
    cluster.nvml().Stop();
    EXPECT_TRUE(frontend.Drained());

    traces.AddNvml(cluster);
    run.served = frontend.served();
    run.shed = frontend.shed();
    run.scale_ups = scaler.scale_ups();
    out << " requests=" << requests.str() << " arrived=" << frontend.arrived()
        << " served=" << run.served << " shed=" << run.shed
        << " lost=" << frontend.lost() << " late=" << frontend.violations()
        << " scale=" << run.scale_ups << "/" << scaler.scale_downs()
        << " events=" << sim.lifetime_events();
  }
  run.summary = traces.str() + out.str();
  return run;
}

TEST(ServingGolden, FlashCrowdClusterMatchesRecordedTrace) {
  const ServingRun run = RunFlashCrowdCluster();
  // The run exercises what the pin is for: admission sheds and the
  // autoscaler reacts.
  EXPECT_GT(run.shed, 0u);
  EXPECT_GT(run.scale_ups, 0u);
  golden::ExpectDeviceGolden("serving/flash-crowd", run.summary);
}

TEST(ServingGolden, ServedFnFiresAtKernelFinish) {
  const ServingRun run = RunFlashCrowdCluster();
  EXPECT_GT(run.served, 0u);
  EXPECT_EQ(run.late_deliveries, 0u);
}

}  // namespace
}  // namespace ks::serving
