#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cuda/context.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "vgpu/frontend_hook.hpp"
#include "workload/job.hpp"

namespace ks::workload {

/// Runs the "application inside the container" side of the simulation.
///
/// The host installs start/stop hooks on every node's container runtime.
/// When a container starts, it looks up the Job registered for it and
/// builds the in-container stack:
///
///   Job  ->  FrontendHook (vGPU device library)  ->  CudaContext  ->  GPU
///
/// The FrontendHook layer is installed exactly when DevMgr injected the
/// KUBESHARE_* environment (i.e. for sharePod workloads); native pods get
/// the raw driver context — the same machine can run both, as in the
/// paper's mixed clusters. With ClusterConfig::oversub on, each FrontendHook
/// is also wired to its device's shared SwapManager. When a Job reports
/// completion the host exits the container, which flows back through
/// kubelet into the pod phase.
class WorkloadHost {
 public:
  using JobFactory = std::function<std::unique_ptr<Job>()>;

  explicit WorkloadHost(k8s::Cluster* cluster);

  /// Registers the job that will run in the container of `name`. For
  /// KubeShare workloads, `name` is the *sharePod* name (resolved through
  /// the KUBESHARE_SHAREPOD env var); for native pods it is the pod name.
  /// Also stamps the submission time for completion-latency metrics.
  void ExpectJob(const std::string& name, JobFactory factory);

  struct JobRecord {
    Time submitted{0};
    Time started{0};
    Time finished{0};
    bool has_started = false;
    bool has_finished = false;
    bool success = false;
    /// Container relaunches after an infrastructure kill (the record is
    /// reopened each time, so the final outcome is the retry's).
    int restarts = 0;
  };

  const JobRecord* RecordOf(const std::string& name) const;
  /// Every job this host has seen, keyed by job name.
  const std::unordered_map<std::string, JobRecord>& records() const {
    return records_;
  }
  std::size_t completed() const { return completed_; }
  std::size_t failed() const { return failed_; }
  std::size_t started() const { return started_; }
  /// Jobs whose container was relaunched after an infrastructure kill.
  std::size_t restarts() const { return restarts_; }

  /// Completion timestamps of successful jobs, in completion order.
  const std::vector<Time>& completion_times() const {
    return completion_times_;
  }

  /// Live handle to a running job (e.g. to inspect served request counts).
  Job* RunningJob(const std::string& name);

  /// The vGPU device library instance of a running KubeShare job, if any —
  /// used by experiments that sample per-container usage (Fig 6).
  const vgpu::FrontendHook* RunningHook(const std::string& name) const;

  /// Mutable variant, for the chaos injector's adversarial-tenant faults
  /// (a tenant controls its own copy of the device library, so "turn a
  /// tenant hostile" is a client-side switch).
  vgpu::FrontendHook* MutableRunningHook(const std::string& name);

  /// Names of the KubeShare jobs currently running under a frontend hook,
  /// sorted — a deterministic target list for injected tenant misbehavior.
  std::vector<std::string> RunningKubeShareJobs() const;

  /// Custom interposition for non-KubeShare containers (the baseline GPU
  /// sharing systems install their own device libraries this way). The
  /// decorator may return nullptr to leave the raw driver context in place.
  using ApiDecorator = std::function<std::unique_ptr<cuda::CudaApi>(
      cuda::CudaApi* inner, const k8s::ContainerInstance& inst,
      gpu::GpuDevice* device)>;
  void SetApiDecorator(ApiDecorator decorator) {
    decorator_ = std::move(decorator);
  }

  /// The shared SwapManager of the device `uuid`, or nullptr when
  /// over-commitment is off or no container has started on it yet —
  /// metrics exporters and benches read residency counters through this.
  const vgpu::SwapManager* SwapFor(const GpuUuid& uuid) const;

 private:
  struct Stack {
    std::string job_name;
    std::unique_ptr<cuda::CudaContext> ctx;
    std::unique_ptr<vgpu::FrontendHook> hook;
    std::unique_ptr<cuda::CudaApi> custom_hook;
    std::unique_ptr<Job> job;
    /// Set when the container was pinned to a spatial slice: the
    /// assignment on this device is cleared when the stack unwinds.
    gpu::GpuDevice* sliced_device = nullptr;
    ContainerId container_id;
  };

  void OnContainerStart(const k8s::ContainerInstance& inst);
  void OnContainerStop(const k8s::ContainerInstance& inst);
  void FinishJob(const std::string& job_name, bool success);
  static std::string JobNameFor(const k8s::ContainerInstance& inst);

  k8s::Cluster* cluster_;
  ApiDecorator decorator_;
  std::unordered_map<GpuUuid, std::unique_ptr<vgpu::SwapManager>> swaps_;

  std::unordered_map<std::string, JobFactory> factories_;
  std::unordered_map<std::string, JobRecord> records_;
  std::unordered_map<std::string, std::shared_ptr<Stack>> active_;  // by pod

  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t started_ = 0;
  std::size_t restarts_ = 0;
  std::vector<Time> completion_times_;
};

}  // namespace ks::workload
