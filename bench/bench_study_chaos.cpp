// Chaos study (design extension; no paper figure): throughput and job
// completion under deterministic fault injection, native Kubernetes vs
// KubeShare.
//
// 8-node / 32-GPU cluster under the Fig-8-style Poisson inference
// workload. A seeded FaultPlan injects node crashes (with auto-recovery),
// token-daemon restarts, container OOM-kills, apiserver latency spikes and
// dropped watch events at increasing rates. KubeShare runs with the DevMgr
// reconcile pass enabled and infrastructure-killed sharePods requeued;
// native Kubernetes has no retry path, so evicted jobs stay failed — the
// gap between the two "completed" columns is the recovery subsystem.
//
// The 10 (rate, mode) points run through the parallel sweep runner — each
// RunWithChaos builds its own Simulation/Cluster/FaultInjector, so points
// are independent. Results are collected and printed in point order:
// KS_BENCH_THREADS=1 (serial) and the default parallel run produce
// byte-identical output and BENCH_study_chaos.json.

#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "json_report.hpp"
#include "sweep.hpp"

namespace {

ks::bench::RunOptions BaseOptions() {
  ks::bench::RunOptions opt;
  opt.cluster.nodes = 8;
  opt.cluster.gpus_per_node = 4;
  // Faster control-plane reaction than the Kubernetes defaults so the
  // recovery path, not the detection latency, dominates the measurement.
  opt.cluster.node_detection = ks::Seconds(2);
  opt.cluster.pod_eviction_timeout = ks::Seconds(3);
  // Periodic relist so dropped watch events cannot strand a pod forever.
  opt.cluster.component_resync = ks::Seconds(2);
  opt.workload.total_jobs = 150;
  opt.workload.mean_interarrival = ks::Seconds(1.0);
  opt.workload.job_duration = ks::Seconds(38.4);
  opt.workload.demand_mean = 0.3;
  opt.workload.demand_stddev = 0.1;
  opt.workload.gpu_mem = 0.2;
  opt.workload.seed = 7;
  opt.kubeshare.reconcile_period = ks::Seconds(2);
  opt.horizon = ks::Minutes(30);
  return opt;
}

ks::chaos::RandomPlanOptions PlanFor(const ks::bench::RunOptions& opt,
                                     int faults_per_minute) {
  ks::chaos::RandomPlanOptions plan;
  plan.seed = 1234;  // same plan for both modes at a given rate
  plan.start = ks::Seconds(5);
  plan.horizon = ks::Minutes(5);
  plan.fault_count =
      faults_per_minute * 5;  // rate x the 5-minute injection window
  for (int n = 0; n < opt.cluster.nodes; ++n) {
    plan.nodes.push_back("node-" + std::to_string(n));
  }
  plan.outage_min = ks::Seconds(8);
  plan.outage_max = ks::Seconds(20);
  // Control-plane faults from the crash-consistency PR. Both modes draw
  // the same plan; in native-k8s mode there is no KubeShare control plane
  // to kill, so these land as recorded skips and the node-level faults
  // stay identical across the two columns.
  plan.devmgr_crash_weight = 0.4;
  plan.sched_crash_weight = 0.4;
  return plan;
}

struct ChaosRun {
  ks::bench::RunResult result;
  ks::chaos::ChaosStats chaos;
};

ChaosRun RunWithChaos(ks::bench::RunOptions opt, int faults_per_minute,
                      bool kubeshare) {
  opt.use_kubeshare = kubeshare;
  std::unique_ptr<ks::chaos::FaultInjector> injector;
  if (faults_per_minute > 0) {
    const ks::chaos::FaultPlan plan =
        ks::chaos::FaultPlan::Random(PlanFor(opt, faults_per_minute));
    opt.on_start = [&injector, plan](ks::k8s::Cluster& cluster,
                                     ks::kubeshare::KubeShare* ks) {
      injector =
          std::make_unique<ks::chaos::FaultInjector>(&cluster, plan);
      if (ks != nullptr) injector->SetKubeShare(ks);
      (void)injector->Arm();
    };
  }
  ChaosRun run;
  run.result = ks::bench::RunWorkload(opt);
  if (injector != nullptr) run.chaos = injector->stats();
  return run;
}

struct Point {
  int rate;
  bool kubeshare;
};

}  // namespace

int main() {
  using namespace ks;
  bench::Banner("bench_study_chaos: throughput & completion vs fault rate",
                "design study (chaos subsystem)");

  std::cout << "\n150 jobs, Poisson arrivals (1 s mean), faults injected "
               "over the first 5 min.\nSame seeded FaultPlan for both "
               "modes at each rate.\n\n";

  std::vector<Point> sweep;
  for (const int rate : {0, 1, 2, 4, 8}) {
    for (const bool kubeshare : {false, true}) {
      sweep.push_back({rate, kubeshare});
    }
  }

  std::vector<ChaosRun> runs(sweep.size());
  bench::RunSweep(sweep.size(), [&](std::size_t i) {
    runs[i] = RunWithChaos(BaseOptions(), sweep[i].rate, sweep[i].kubeshare);
  });

  Table table({"faults/min", "mode", "completed", "failed", "jobs/min",
               "MTTR s", "devmgr MTTR s", "sched MTTR s", "evicted",
               "vGPU reclaim", "requeued", "daemon restarts"});
  JsonValue report = bench::MakeReport("study_chaos");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ChaosRun& run = runs[i];
    const std::string mode = sweep[i].kubeshare ? "kubeshare" : "k8s";
    table.AddRow(
        {Cell(static_cast<std::int64_t>(sweep[i].rate)), mode,
         Cell(static_cast<std::int64_t>(run.result.completed)),
         Cell(static_cast<std::int64_t>(run.result.failed)),
         Cell(run.result.jobs_per_minute, 1),
         Cell(ToSeconds(run.chaos.MeanTimeToRecovery()), 2),
         Cell(ToSeconds(run.chaos.MeanDevMgrRecovery()), 2),
         Cell(ToSeconds(run.chaos.MeanSchedRecovery()), 2),
         Cell(static_cast<std::int64_t>(run.result.recovery.pods_evicted)),
         Cell(static_cast<std::int64_t>(
             run.result.recovery.vgpus_reclaimed)),
         Cell(static_cast<std::int64_t>(
             run.result.recovery.sharepods_requeued)),
         Cell(static_cast<std::int64_t>(
             run.result.recovery.backend_restarts))});
    JsonValue row = JsonValue::Object();
    row.Set("faults_per_minute", sweep[i].rate);
    row.Set("mode", mode);
    row.Set("mttr_s", ToSeconds(run.chaos.MeanTimeToRecovery()));
    row.Set("devmgr_mttr_s", ToSeconds(run.chaos.MeanDevMgrRecovery()));
    row.Set("sched_mttr_s", ToSeconds(run.chaos.MeanSchedRecovery()));
    row.Set("devmgr_crashes",
            static_cast<std::int64_t>(run.chaos.devmgr_crashes));
    row.Set("sched_crashes",
            static_cast<std::int64_t>(run.chaos.sched_crashes));
    bench::FillRunResult(row, run.result);
    bench::AddRow(report, std::move(row));
  }
  table.Print(std::cout);

  std::cout << "\nExpected shape: at rate 0 the modes match their fault-free "
               "baselines.\nAs the fault rate grows, native Kubernetes loses "
               "every job on a crashed\nnode (failed column grows) while "
               "KubeShare requeues them — completion\nstays near the job "
               "count at the cost of throughput (recovery latency).\n";
  std::cout << "\nwrote " << bench::WriteReport(report) << "\n";
  return 0;
}
