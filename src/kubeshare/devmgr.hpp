#pragma once

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "k8s/cluster.hpp"
#include "k8s/store.hpp"
#include "kubeshare/config.hpp"
#include "kubeshare/pool.hpp"
#include "kubeshare/sharepod.hpp"

namespace ks::kubeshare {

/// KubeShare-DevMgr: the custom controller that owns the vGPU lifecycle and
/// the explicit container <-> device binding (paper §4.4).
///
/// For each scheduled sharePod it:
///  1. ensures the target vGPU exists — acquiring a physical GPU from
///     Kubernetes by launching an empty *acquisition pod* that requests one
///     nvidia.com/gpu on the chosen node, and reading the device UUID out
///     of the environment the device plugin injected;
///  2. launches the *workload pod* bound directly to the node (bypassing
///     kube-scheduler), with NVIDIA_VISIBLE_DEVICES set to the vGPU's UUID
///     and the KUBESHARE_* variables the in-container device library reads;
///  3. mirrors the workload pod's phase back onto the sharePod; and
///  4. on detachment, applies the pool policy: on-demand releases idle
///     vGPUs (deleting the acquisition pod, handing the GPU back to
///     Kubernetes) while reservation keeps them idle for reuse.
class KubeShareDevMgr {
 public:
  KubeShareDevMgr(k8s::Cluster* cluster, k8s::ObjectStore<SharePod>* sharepods,
                  VgpuPool* pool, KubeShareConfig config);

  Status Start();

  /// Chaos model of a DevMgr process death: both watches drop, the
  /// SharePodRec / acquisition-pod tables are lost, and the in-memory
  /// vGPU pool — DevMgr's to own — is wiped (paper §4.2: DevMgr holds the
  /// only copy of the GPUID<->UUID mapping). Timers already in flight
  /// become no-ops (epoch guard). Nothing at the apiserver is touched:
  /// acquisition pods keep holding their physical GPUs, workload pods
  /// keep running — which is exactly what Restart rebuilds from.
  void Crash();

  /// Brings a crashed DevMgr back: relists from the apiserver, rebuilds
  /// the vGPU pool and record tables (RebuildFromApiServer), then
  /// re-watches — replayed Added events and the periodic reconcile pass
  /// idempotently repair whatever moved during the downtime.
  Status Restart();

  /// State reconstruction, callable on any start: rebuilds the pool from
  /// acquisition pods (GPUID label -> node/UUID binding), re-attaches
  /// every scheduled sharePod, re-adopts live workload pods, and releases
  /// orphaned vGPUs per the pool policy. Idempotent over current pool
  /// contents; cross-checked by VgpuPool::CheckIndexInvariants().
  Status RebuildFromApiServer();

  /// Leader-election hook: writes are stamped with the token this returns
  /// (0 = unfenced), so a deposed DevMgr's stale writes are rejected.
  void SetFencingTokenProvider(std::function<std::uint64_t()> provider);

  /// Reservation-mode helper: pre-acquires a vGPU on `node` so later
  /// sharePods skip the acquisition latency (§4.4 "reservation manner").
  Expected<GpuId> ReserveVgpu(const std::string& node);

  /// One reconcile/resync pass (also runs periodically when
  /// KubeShareConfig::reconcile_period > 0):
  ///  1. vGPUs on NotReady nodes are reclaimed — their GPUID<->UUID binding
  ///     is dead with the node — and their sharePods requeued;
  ///  2. records whose workload pod reached a terminal phase without the
  ///     watch delivering it (dropped event) are repaired;
  ///  3. scheduled sharePods the watch never delivered are adopted.
  void ReconcileOnce();

  /// Isolation-enforcement hook: a node's token backend reports a repeat
  /// offender (violation ledger past the eviction threshold); DevMgr maps
  /// the container back to its sharePod and fails it through the normal
  /// teardown path. No-op when no running workload pod on `node` maps to
  /// `container` (already finished or torn down).
  void EvictTenant(const std::string& node, const ContainerId& container,
                   const std::string& reason);

  std::uint64_t vgpus_created() const { return vgpus_created_; }
  std::uint64_t vgpus_released() const { return vgpus_released_; }
  std::uint64_t workload_pods_launched() const { return workload_launched_; }
  /// vGPUs garbage-collected off dead nodes by the reconcile pass.
  std::uint64_t vgpus_reclaimed() const { return vgpus_reclaimed_; }
  /// SharePods sent back through KubeShare-Sched after losing their node,
  /// device, or container to an infrastructure fault.
  std::uint64_t sharepods_requeued() const { return sharepods_requeued_; }
  std::uint64_t reconcile_passes() const { return reconcile_passes_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t rebuilds() const { return rebuilds_; }
  /// vGPU entries recovered by the last rebuild.
  std::uint64_t rebuilt_vgpus() const { return rebuilt_vgpus_; }
  /// SharePods failed by isolation enforcement (EvictTenant).
  std::uint64_t tenants_evicted() const { return tenants_evicted_; }

 private:
  enum class RecState {
    kAwaitingVgpu,    // vGPU still acquiring its physical GPU
    kLaunching,       // workload pod being created
    kRunning,
    kDone,
  };
  struct SharePodRec {
    RecState state = RecState::kAwaitingVgpu;
    GpuId device;
    std::string workload_pod;
  };

  void OnSharePodEvent(const k8s::WatchEvent<SharePod>& event);
  void OnPodEvent(const k8s::WatchEvent<k8s::Pod>& event);

  void HandleScheduled(const SharePod& pod);
  /// Strips the sharePod's placement (gpu_id/node_name/workload pod) and
  /// returns it to Pending so KubeShare-Sched places it again. The stale
  /// workload-pod object is deleted so the name can be reused.
  void Requeue(const std::string& name, const std::string& reason);
  /// Routes a failed workload pod: infrastructure kills ("NodeLost",
  /// "OOMKilled") requeue when configured; anything else fails the
  /// sharePod.
  void OnWorkloadPodFailed(const std::string& sharepod_name,
                           const std::string& message);
  /// Drops a vGPU whose physical binding is gone (dead node / evicted
  /// acquisition pod) and requeues every attached sharePod.
  void ReclaimVgpu(const GpuId& id, const std::string& detail);
  void ScheduleReconcile();
  /// Pinned-GPUID path: the user wrote gpu_id directly; DevMgr validates
  /// and reserves the placement that KubeShare-Sched would otherwise have
  /// made.
  Status EnsureAttached(const SharePod& pod);
  void EnsureVgpu(const GpuId& id);
  /// Completes a pending vGPU from its Running acquisition pod: reads the
  /// UUID out of the injected environment, activates the pool entry, and
  /// launches every sharePod that was waiting. Called from the watch path
  /// and from the reconcile pass (a dropped Running event otherwise
  /// strands the vGPU in kPending forever). No-op if already active.
  void ActivateVgpuFromPod(const GpuId& id, const k8s::Pod& pod);
  void LaunchWorkloadPod(const std::string& sharepod_name);
  void FinishSharePod(const std::string& name, SharePodPhase phase,
                      const std::string& message = "");
  void TearDown(const std::string& name);
  void MaybeReleaseVgpu(const GpuId& id);
  void SetSharePodPhase(const std::string& name, SharePodPhase phase,
                        const std::string& message = "");
  void ScheduleLaunch(const std::string& name);
  std::uint64_t Token() const;

  k8s::Cluster* cluster_;
  k8s::ObjectStore<SharePod>* sharepods_;
  VgpuPool* pool_;
  KubeShareConfig config_;
  std::function<std::uint64_t()> token_provider_;
  bool started_ = false;
  k8s::WatchId sharepod_watch_ = 0;
  k8s::WatchId pod_watch_ = 0;
  /// Bumped by Crash so timers scheduled pre-crash no-op post-restart.
  std::uint64_t epoch_ = 0;

  std::unordered_map<std::string, SharePodRec> records_;
  std::map<GpuId, std::string> acquisition_pods_;   // vGPU -> pod name
  std::map<std::string, GpuId> acquisition_owner_;  // pod name -> vGPU
  std::map<std::string, std::string> workload_owner_;  // pod -> sharePod

  std::uint64_t vgpus_created_ = 0;
  std::uint64_t vgpus_released_ = 0;
  std::uint64_t workload_launched_ = 0;
  std::uint64_t vgpus_reclaimed_ = 0;
  std::uint64_t sharepods_requeued_ = 0;
  std::uint64_t reconcile_passes_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t rebuilt_vgpus_ = 0;
  std::uint64_t rebuilt_records_ = 0;
  std::uint64_t tenants_evicted_ = 0;
  std::uint64_t next_acq_ = 1;
};

}  // namespace ks::kubeshare
