// Ablation (DESIGN.md extension; paper §4.5 related work): GPUswap-style
// memory over-commitment.
//
// Memory-heavy inference jobs (each reserving 60% of device memory, but
// only 30% compute) are packed two-per-GPU only when over-commitment is
// on; the cost is page migration on token hand-offs. The bench sweeps the
// model size and reports throughput with and without the extension —
// showing both the paper's warning ("the risk to introduce more
// performance overhead from the memory swapping operations") and the
// upside (more sharing opportunities).

#include <iostream>

#include "common/table.hpp"
#include "harness.hpp"
#include "workload/host.hpp"

namespace {

using namespace ks;

struct Result {
  double jobs_per_minute = 0.0;
  std::size_t completed = 0;
};

Result Run(bool overcommit, double model_fraction) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.gpus_per_node = 2;
  ccfg.oversub.enabled = overcommit;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  (void)cluster.Start();
  (void)kubeshare.Start();

  const int total_jobs = 24;
  const auto model_bytes = static_cast<std::uint64_t>(
      model_fraction * static_cast<double>(cluster.config().gpu_spec.memory_bytes));
  Time next = Seconds(1);
  for (int i = 0; i < total_jobs; ++i) {
    const std::string name = "job-" + std::to_string(i);
    workload::InferenceSpec spec =
        workload::InferenceSpec::ForDemand(0.3, 450, Millis(20));
    spec.model_bytes = model_bytes;
    spec.seed = 11 + static_cast<std::uint64_t>(i);
    cluster.sim().ScheduleAt(next, [&, name, spec, model_fraction] {
      host.ExpectJob(name, [spec] {
        return std::make_unique<workload::InferenceJob>(spec);
      });
      kubeshare::SharePod sp;
      sp.meta.name = name;
      sp.spec.gpu.gpu_request = 0.3;
      sp.spec.gpu.gpu_limit = 0.8;
      sp.spec.gpu.gpu_mem = model_fraction + 0.02;
      (void)kubeshare.CreateSharePod(sp);
    });
    next += Seconds(2);
  }
  const Duration slice = Seconds(10);
  while (host.completed() + host.failed() <
             static_cast<std::size_t>(total_jobs) &&
         cluster.sim().Now() < Minutes(120)) {
    cluster.sim().RunUntil(cluster.sim().Now() + slice);
  }
  Result r;
  r.completed = host.completed();
  if (!host.completion_times().empty()) {
    const Duration span = host.completion_times().back() - Seconds(1);
    r.jobs_per_minute =
        static_cast<double>(host.completed()) / (ToSeconds(span) / 60.0);
  }
  return r;
}

}  // namespace

int main() {
  bench::Banner("bench_ablation_overcommit: GPUswap-style memory sharing",
                "DESIGN.md extension (paper §4.5 related work)");

  Table table({"model size (frac of GPU mem)", "strict jobs/min",
               "overcommit jobs/min", "overcommit gain"});
  for (const double frac : {0.25, 0.40, 0.60, 0.75}) {
    const Result strict = Run(false, frac);
    const Result oc = Run(true, frac);
    table.AddRow({Cell(frac, 2), Cell(strict.jobs_per_minute, 1),
                  Cell(oc.jobs_per_minute, 1),
                  Cell(strict.jobs_per_minute > 0
                           ? oc.jobs_per_minute / strict.jobs_per_minute
                           : 0.0,
                       2)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected: small models (<=0.5) fit pairwise anyway — no "
               "difference.\nLarge models only share under over-commitment; "
               "whether that wins depends\non migration cost vs queueing "
               "(the tradeoff the paper cites from the\nGPUswap line of "
               "work).\n";
  return 0;
}
