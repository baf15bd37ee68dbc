#pragma once

#include <functional>
#include <string>

#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/recovery.hpp"
#include "metrics/sampler.hpp"
#include "workload/generator.hpp"
#include "workload/host.hpp"

namespace ks::bench {

/// One cluster-scale experiment run: a generated inference workload pushed
/// through either native Kubernetes or KubeShare, on a fresh simulated
/// cluster. Returns the paper's headline quantities.
struct RunOptions {
  k8s::ClusterConfig cluster;
  workload::WorkloadConfig workload;
  bool use_kubeshare = true;
  kubeshare::KubeShareConfig kubeshare;
  /// Safety horizon: the run aborts (and reports what completed) if the
  /// simulation passes this point.
  Duration horizon = Minutes(240);
  /// Invoked after the cluster (and KubeShare, when enabled) has started,
  /// before the run loop — the chaos benches use it to arm a FaultInjector
  /// against the live cluster. The kubeshare pointer is null in native
  /// mode.
  std::function<void(k8s::Cluster&, kubeshare::KubeShare*)> on_start;
};

struct RunResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  Duration makespan{0};
  double jobs_per_minute = 0.0;
  /// Job completion time (submission to finish) percentiles over every
  /// submitted job. A job still unfinished at the horizon counts as
  /// finishing at the horizon (censored), so a backlog shows in the tail
  /// instead of vanishing from it.
  double jct_p50_s = 0.0;
  double jct_p99_s = 0.0;
  /// Mean of "average utilization across active GPUs" samples (Fig 9's
  /// y-axis) over the busy part of the run.
  double avg_active_utilization = 0.0;
  /// Mean number of GPUs held (vGPU pool size for KubeShare; GPUs with
  /// bound jobs for native).
  double mean_gpus_held = 0.0;
  double peak_gpus_held = 0.0;
  /// Fault-recovery counters accumulated over the run.
  metrics::RecoveryMetrics recovery;
  /// Jobs whose container was relaunched after an infrastructure kill.
  std::size_t job_restarts = 0;
  /// Engine events scheduled over the whole run (Simulation::
  /// lifetime_events()) — the quantity the shared sampler tick exists to
  /// shrink. Deterministic for a given configuration, so reports can
  /// compare it across runs.
  std::uint64_t total_events = 0;
};

RunResult RunWorkload(const RunOptions& options);

/// Prints the standard benchmark banner.
void Banner(const std::string& title, const std::string& paper_ref);

}  // namespace ks::bench
