#pragma once

#include <optional>
#include <string>

#include "common/ids.hpp"
#include "k8s/objects.hpp"
#include "vgpu/resource_spec.hpp"

namespace ks::kubeshare {

/// Environment variables through which KubeShare-DevMgr passes the vGPU
/// binding and resource spec into the container (consumed by the in-container
/// device library; paper §4.4 "install and initialize the device library
/// inside the container").
/// Label stamped on every native pod KubeShare creates, so its own GPU
/// consumption can be told apart from other users' native GPU pods.
inline constexpr const char* kManagedLabel = "kubeshare.io/managed";
/// Role label on managed pods: "acquisition" (the empty pod that holds a
/// physical GPU for the vGPU pool) or "workload" (the user's container).
inline constexpr const char* kRoleLabel = "kubeshare.io/role";
inline constexpr const char* kRoleAcquisition = "acquisition";
inline constexpr const char* kRoleWorkload = "workload";
/// GPUID an acquisition pod holds the physical GPU for. Stamped at
/// creation so a restarted DevMgr can rebuild the GPUID<->UUID half of the
/// vGPU pool from the apiserver alone (the pod's node selector names the
/// node; its effective environment carries the UUID once Running).
inline constexpr const char* kGpuIdLabel = "kubeshare.io/gpu-id";
/// Slice placement of a spatially-shared workload pod, "offset/groups"
/// (e.g. "2/1"): observability only — the authoritative copy lives in the
/// SharePodSpec so a restarted DevMgr rebuilds placements from the CRD.
inline constexpr const char* kSliceLabel = "kubeshare.io/slice";

inline constexpr const char* kEnvSharePod = "KUBESHARE_SHAREPOD";
inline constexpr const char* kEnvGpuId = "KUBESHARE_GPUID";
inline constexpr const char* kEnvGpuRequest = "KUBESHARE_GPU_REQUEST";
inline constexpr const char* kEnvGpuLimit = "KUBESHARE_GPU_LIMIT";
inline constexpr const char* kEnvGpuMem = "KUBESHARE_GPU_MEM";
/// SM-group slice claim (integer; absent or "0" = temporal full-GPU).
inline constexpr const char* kEnvSliceGroups = "KUBESHARE_SLICE_GROUPS";

/// Locality constraints of §4.2: all three are arbitrary string labels.
struct LocalitySpec {
  /// Containers with the same affinity label are forced onto one GPU.
  std::optional<Label> affinity;
  /// Containers with the same anti-affinity label are forced onto
  /// different GPUs.
  std::optional<Label> anti_affinity;
  /// GPU sharing is excluded across different exclusion labels: a device
  /// carrying exclusion label X only accepts containers labelled X.
  std::optional<Label> exclusion;
};

/// SharePodSpec (paper Script 1): the original PodSpec plus GPU usage
/// requirements, the (virtual) GPU identifier and its node. gpu_id and
/// node_name are normally filled in by KubeShare-Sched, but a user may set
/// them directly — GPUs are first-class, explicitly addressable resources.
struct SharePodSpec {
  k8s::PodSpec pod;
  vgpu::ResourceSpec gpu;
  LocalitySpec locality;
  GpuId gpu_id;            // empty until scheduled (or user-pinned)
  std::string node_name;   // empty until scheduled (or user-pinned)
  /// First SM group of the slice KubeShare-Sched assigned when
  /// gpu.slice_groups > 0 on a spatial pool; -1 until placed. Persisted in
  /// the spec so a restarted DevMgr re-attaches the exact same groups.
  int slice_offset = -1;
  /// Scheduling priority: higher-priority sharePods leave the queue first
  /// (ties break FIFO). No preemption — priority orders admission only,
  /// like Kubernetes PriorityClass without the eviction half. Fixed at
  /// creation, as PodSpec.priority is in Kubernetes: KubeShare-Sched reads
  /// it once, when the sharePod joins its queue.
  int priority = 0;
};

enum class SharePodPhase {
  kPending,     // created, not yet mapped to a vGPU
  kScheduled,   // GPUID assigned, vGPU/workload pod being prepared
  kRunning,     // workload container running with the device library
  kSucceeded,
  kFailed,
  kRejected,    // constraint violation (Algorithm 1 "return -1")
};

inline const char* SharePodPhaseName(SharePodPhase p) {
  switch (p) {
    case SharePodPhase::kPending: return "Pending";
    case SharePodPhase::kScheduled: return "Scheduled";
    case SharePodPhase::kRunning: return "Running";
    case SharePodPhase::kSucceeded: return "Succeeded";
    case SharePodPhase::kFailed: return "Failed";
    case SharePodPhase::kRejected: return "Rejected";
  }
  return "Unknown";
}

struct SharePodStatus {
  SharePodPhase phase = SharePodPhase::kPending;
  /// Name of the native pod DevMgr launched for this sharePod.
  std::string workload_pod;
  std::string message;
  std::optional<Time> scheduled_time;
  std::optional<Time> running_time;
  std::optional<Time> finished_time;
};

/// The custom resource KubeShare registers with the apiserver (operator
/// pattern: custom resource + custom controller, §4.6).
struct SharePod {
  k8s::ObjectMeta meta;
  SharePodSpec spec;
  SharePodStatus status;

  bool scheduled() const { return !spec.gpu_id.empty(); }
  bool terminal() const {
    return status.phase == SharePodPhase::kSucceeded ||
           status.phase == SharePodPhase::kFailed ||
           status.phase == SharePodPhase::kRejected;
  }
};

}  // namespace ks::kubeshare
