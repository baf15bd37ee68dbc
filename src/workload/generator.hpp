#pragma once

#include <string>

#include "common/rng.hpp"
#include "kubeshare/kubeshare.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::workload {

/// Shape of a cluster-scale experiment workload, matching §5.3: "a set of
/// model inference jobs; the job inter-arrival time follows a Poisson
/// process, and the job GPU usage demand is randomly generated from a
/// normal distribution."
struct WorkloadConfig {
  int total_jobs = 200;
  /// Mean inter-arrival time of the Poisson arrival process.
  Duration mean_interarrival = Seconds(3.0);
  /// GPU demand distribution (truncated normal).
  double demand_mean = 0.3;
  double demand_stddev = 0.1;
  double demand_min = 0.05;
  double demand_max = 1.0;
  /// Job length when the job runs unthrottled. The client request count is
  /// derived per job as demand/kernel * duration, so duration is demand-
  /// independent — which is why native Kubernetes throughput is agnostic
  /// to the demand distribution (Fig 8b).
  Duration job_duration = Seconds(38.4);
  Duration kernel = Millis(20);
  /// Fractional device memory each job reserves (gpu_mem).
  double gpu_mem = 0.2;
  std::uint64_t model_bytes = 2ull << 30;
  std::int64_t cpu_millicores = 1000;
  std::uint64_t seed = 42;
  /// gpu_limit for KubeShare submissions: 1.0 leaves elasticity on.
  double gpu_limit = 1.0;
  /// Job flavor the generator emits: Poisson inference services (the
  /// paper's §5.3 mix) or continuous training jobs — the same compute
  /// volume issued as one back-to-back kernel stream per job, the
  /// kernel-heavy case for the device engine.
  enum class JobKind { kInference, kTraining };
  JobKind job_kind = JobKind::kInference;
};

/// Submits one generated workload to the cluster — either through
/// KubeShare sharePods (fractional requests) or as native Kubernetes pods
/// (one whole GPU each, the paper's baseline).
class WorkloadDriver {
 public:
  enum class Mode { kNative, kKubeShare };

  WorkloadDriver(k8s::Cluster* cluster, WorkloadHost* host, Mode mode,
                 kubeshare::KubeShare* kubeshare, WorkloadConfig config);

  /// Begins the Poisson arrival process.
  void Start();

  int submitted() const { return submitted_; }
  bool AllSubmitted() const { return submitted_ >= config_.total_jobs; }
  /// True once every submitted job has finished (successfully or not).
  bool AllDone() const;

  /// Throughput the paper reports: total completed jobs per minute of
  /// makespan (submission of the first job to completion of the last).
  double JobsPerMinute() const;
  Duration Makespan() const;

 private:
  void ScheduleNextArrival();
  void SubmitOne();

  k8s::Cluster* cluster_;
  WorkloadHost* host_;
  Mode mode_;
  kubeshare::KubeShare* kubeshare_;
  WorkloadConfig config_;
  Rng rng_;

  int submitted_ = 0;
  Time first_submit_{0};
  bool started_ = false;
};

}  // namespace ks::workload
