// Differential tests for the serving subsystem (ROADMAP item 4).
//
// Pairs pinned here:
//   1. BatchedArrivalStream draws the identical arrival timestamp
//      sequence for any envelope/seed whatever its batching window —
//      thinning is a shared core, so the 1, 10 and 100 ms windows match
//      the per-request (window <= 0) stream exactly.
//   2. A batched serving cluster run is deterministic: same request
//      trace, same kernel trace, same token trace — including while chaos
//      restarts node-0's token daemon and crashes the DevMgr mid-run.
//   3. Admission control armed but never triggered (min_samples above the
//      run's request count) is byte-equal to admission disabled: the
//      digest bookkeeping on the admit path must not perturb the
//      schedule. This is the "knobs default off changes nothing" claim.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "gpu/device.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "kubeshare/replicaset.hpp"
#include "serving/arrivals.hpp"
#include "serving/service.hpp"
#include "workload/host.hpp"

namespace ks::serving {
namespace {

std::vector<Time> StreamArrivals(const RateEnvelope& envelope,
                                 std::uint64_t seed, Time until,
                                 Duration window) {
  std::vector<Time> got;
  sim::Simulation sim;
  BatchedArrivalStream gen(&sim, envelope, seed, until, window,
                           [&](const std::vector<Time>& batch) {
                             got.insert(got.end(), batch.begin(),
                                        batch.end());
                           });
  gen.Start();
  sim.RunUntil(Seconds(60.0));
  EXPECT_EQ(gen.arrivals(), got.size());
  return got;
}

TEST(ArrivalEquivalence, ThinningIsSharedAcrossGeneratorsAndWindows) {
  const RateEnvelope envelopes[] = {
      RateEnvelope::Steady(80.0),
      RateEnvelope::Diurnal(20.0, 160.0, Seconds(30.0)),
      RateEnvelope::FlashCrowd(25.0, 400.0, Seconds(10.0), Seconds(1.0),
                               Seconds(5.0)),
  };
  const Duration windows[] = {Millis(1), Millis(10), Millis(100)};
  const Time until = Seconds(25.0);
  for (std::size_t e = 0; e < std::size(envelopes); ++e) {
    for (const std::uint64_t seed : {1ull, 77ull, 4242ull}) {
      const std::vector<Time> per_request =
          StreamArrivals(envelopes[e], seed, until, Duration{0});
      ASSERT_FALSE(per_request.empty());
      for (const Duration window : windows) {
        EXPECT_EQ(StreamArrivals(envelopes[e], seed, until, window),
                  per_request)
            << "envelope " << e << " seed " << seed << " window "
            << window.count() << "us";
      }
    }
  }
}

// ---- Full-cluster byte-equality --------------------------------------------

struct ServingTraces {
  std::vector<std::string> requests;  // frontend TraceFn
  std::map<std::string, std::vector<std::string>> kernels;  // by device uuid
  std::map<std::string, std::vector<std::string>> tokens;   // by node
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t lost = 0;
  std::uint64_t generator_events = 0;
};

struct ServingRunOptions {
  Duration batch_window{0};
  bool admission_armed_idle = false;  // enabled, but thresholds unreachable
  bool chaos = false;
  std::uint64_t seed = 21;
  Time horizon = Seconds(40.0);
};

ServingTraces RunServingCluster(const ServingRunOptions& opt) {
  auto out = std::make_unique<ServingTraces>();
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 2;
    ccfg.gpus_per_node = 2;
    if (opt.admission_armed_idle) {
      ccfg.backend.admission.enabled = true;
      // Unreachable trigger: the run serves far fewer requests than this.
      ccfg.backend.admission.min_samples = 1u << 30;
    }
    k8s::Cluster cluster(ccfg);
    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);

    ServingTraces* sink = out.get();
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      k8s::Cluster::NodeHandle& node = cluster.node(n);
      for (auto& dev : node.gpus) {
        const std::string uuid = dev->uuid().value();
        sink->kernels[uuid];
        dev->SetKernelTraceFn([sink, uuid](const gpu::KernelTraceEvent& e) {
          sink->kernels[uuid].push_back(
              std::to_string(e.id) + " " + e.owner.value() + " " + e.name +
              " " + std::to_string(e.start.count()) + " " +
              std::to_string(e.finish.count()));
        });
      }
      const std::string node_name = node.name;
      sink->tokens[node_name];
      node.token_backend->SetGrantTraceFn(
          [sink, node_name](const char* what, const ContainerId& container,
                            Time when) {
            sink->tokens[node_name].push_back(
                std::string(what) + " " + container.value() + " " +
                std::to_string(when.count()));
          });
    }

    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());

    ServiceConfig cfg;
    cfg.name = "svc";
    cfg.envelope = RateEnvelope::FlashCrowd(20.0, 120.0, Seconds(6.0),
                                            Seconds(1.0), Seconds(4.0));
    cfg.slo_p99 = Millis(250);
    cfg.until = Seconds(20.0);
    cfg.seed = opt.seed;
    cfg.batch_window = opt.batch_window;
    cfg.replica.kernel_per_request = Millis(8);
    cfg.replica.model_bytes = 256ull << 20;
    ServiceFrontend frontend(&cluster, &host, cfg);
    frontend.SetTraceFn([sink](const char* what, Time arrival, Time when,
                               const std::string& replica) {
      sink->requests.push_back(std::string(what) + " " +
                               std::to_string(arrival.count()) + " " +
                               std::to_string(when.count()) + " " + replica);
    });

    kubeshare::SharePodReplicaSet::Spec spec;
    spec.name = "svc";
    spec.replicas = 3;
    spec.template_spec.gpu.gpu_request = 0.45;
    spec.template_spec.gpu.gpu_limit = 1.0;
    spec.template_spec.gpu.gpu_mem = 0.2;
    kubeshare::SharePodReplicaSet rs(&kubeshare, spec);
    rs.SetReplicaHook(frontend.MakeReplicaHook());
    EXPECT_TRUE(rs.Start().ok());
    frontend.Start();

    chaos::FaultPlan plan;
    if (opt.chaos) {
      chaos::Fault daemon;
      daemon.at = Seconds(8);
      daemon.kind = chaos::FaultKind::kTokenDaemonRestart;
      daemon.node = "node-0";
      daemon.duration = Seconds(2);
      plan.faults.push_back(daemon);
      chaos::Fault devmgr;
      devmgr.at = Seconds(14);
      devmgr.kind = chaos::FaultKind::kDevMgrCrash;
      devmgr.duration = Seconds(3);
      plan.faults.push_back(devmgr);
    }
    chaos::FaultInjector injector(&cluster, plan);
    injector.SetKubeShare(&kubeshare);
    if (opt.chaos) {
      EXPECT_TRUE(injector.Arm().ok()) << "chaos plan failed to arm";
    }

    cluster.sim().RunUntil(opt.horizon);

    sink->arrived = frontend.arrived();
    sink->served = frontend.served();
    sink->shed = frontend.shed();
    sink->lost = frontend.lost();
    sink->generator_events = frontend.generator_events();
    EXPECT_GT(frontend.arrived(), 0u);
    EXPECT_EQ(frontend.arrived(),
              frontend.served() + frontend.shed() + frontend.lost());
  }
  return std::move(*out);
}

void ExpectLinesEqual(const std::vector<std::string>& a,
                      const std::vector<std::string>& b,
                      const std::string& what) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    ADD_FAILURE() << what << " diverged at line " << i << ": \"" << a[i]
                  << "\" vs \"" << b[i] << "\"";
    return;
  }
  EXPECT_EQ(a.size(), b.size()) << what << " lengths differ";
}

void ExpectServingTracesEqual(const ServingTraces& a, const ServingTraces& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.lost, b.lost);
  ExpectLinesEqual(a.requests, b.requests, "request trace");
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (const auto& [uuid, lines] : a.kernels) {
    auto it = b.kernels.find(uuid);
    ASSERT_NE(it, b.kernels.end()) << uuid;
    ExpectLinesEqual(lines, it->second, "kernel trace on " + uuid);
  }
  ASSERT_EQ(a.tokens.size(), b.tokens.size());
  for (const auto& [node, lines] : a.tokens) {
    auto it = b.tokens.find(node);
    ASSERT_NE(it, b.tokens.end()) << node;
    ExpectLinesEqual(lines, it->second, "token trace on " + node);
  }
}

TEST(ServingEquivalence, ArmedIdleAdmissionByteEqualToDisabled) {
  for (const bool chaos : {false, true}) {
    ServingRunOptions off;
    off.batch_window = Millis(10);
    off.chaos = chaos;
    ServingRunOptions armed = off;
    armed.admission_armed_idle = true;
    const ServingTraces a = RunServingCluster(off);
    const ServingTraces b = RunServingCluster(armed);
    ExpectServingTracesEqual(a, b,
                             chaos ? "armed-idle chaos" : "armed-idle");
    EXPECT_EQ(b.shed, 0u);
  }
}

TEST(ServingEquivalence, BatchedClusterRunIsDeterministic) {
  ServingRunOptions opt;
  opt.batch_window = Millis(10);
  opt.chaos = true;
  const ServingTraces a = RunServingCluster(opt);
  const ServingTraces b = RunServingCluster(opt);
  ExpectServingTracesEqual(a, b, "determinism");
  EXPECT_EQ(a.generator_events, b.generator_events);
}

}  // namespace
}  // namespace ks::serving
