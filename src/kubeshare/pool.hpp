#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "kubeshare/sharepod.hpp"
#include "spatial/geometry.hpp"

namespace ks::kubeshare {

/// Lifecycle of a vGPU (paper §4.4): created (acquiring the physical GPU
/// from Kubernetes), active (>= 1 sharePod attached), idle (still held,
/// nothing attached), and deletion (released back to Kubernetes).
enum class VgpuState { kCreating, kActive, kIdle };

inline const char* VgpuStateName(VgpuState s) {
  switch (s) {
    case VgpuState::kCreating: return "Creating";
    case VgpuState::kActive: return "Active";
    case VgpuState::kIdle: return "Idle";
  }
  return "Unknown";
}

/// One entry of the vGPU pool: the scheduler's view of a shared device.
/// used_util / used_mem are the sums of the attached sharePods' gpu_request
/// and gpu_mem — the commitments Algorithm 1 packs against (the elastic
/// runtime allocation above the requests is the token backend's business,
/// not the scheduler's).
struct VgpuInfo {
  GpuId id;
  std::string node;
  std::optional<GpuUuid> uuid;  // known once the acquisition pod runs
  VgpuState state = VgpuState::kCreating;
  double used_util = 0.0;
  double used_mem = 0.0;
  std::set<Label> affinity;
  std::set<Label> anti_affinity;
  std::optional<Label> exclusion;
  std::set<std::string> attached;  // sharePod names
  /// SM-group occupancy (spatial pools only; groups()==0 otherwise).
  /// Maintained incrementally by Attach/Detach from the slice claims.
  spatial::SliceMap slices;

  double residual_util() const { return 1.0 - used_util; }
  double residual_mem() const { return 1.0 - used_mem; }
  bool idle() const { return attached.empty(); }
};

/// The vGPU pool: all shared GPUs currently held by KubeShare, spread over
/// the cluster's nodes. KubeShare-Sched reserves placements here
/// synchronously (so concurrent scheduling can never over-commit a device)
/// and KubeShare-DevMgr drives each entry through its lifecycle.
class VgpuPool {
 public:
  /// With memory over-commitment on (GPUswap extension), Attach enforces
  /// `factor` x capacity instead of the physical gpu_mem residual — the
  /// device library swaps the overflow. factor 0 = unbounded (legacy).
  /// KubeShare sets it from ClusterConfig::oversub.
  void set_memory_overcommit(bool enabled, double factor = 0.0) {
    memory_overcommit_ = enabled;
    overcommit_factor_ = factor;
  }
  /// The gpu_mem sum a device may carry: 1.0 normally, the configured
  /// factor (or infinity when 0) under over-commitment.
  double mem_capacity() const;

  /// Turns on MIG-style spatial sharing: every device (existing and
  /// future) carries a SliceMap of `sm_groups` SM groups, and Attach
  /// allocates contiguous slice runs for specs with slice_groups > 0.
  /// Survives Clear() — it is process configuration, not pool state.
  void EnableSpatial(int sm_groups);
  bool spatial_enabled() const { return sm_groups_ > 0; }
  int sm_groups() const { return sm_groups_; }

  /// Adds a vGPU in kCreating state on `node` with a fresh id.
  /// KubeShare-Sched calls this through new_dev() in Algorithm 1.
  VgpuInfo& Create(const std::string& node);

  /// Adds a vGPU with a caller-chosen id (user-pinned GPUIDs).
  Expected<GpuId> CreateWithId(const GpuId& id, const std::string& node);

  bool Contains(const GpuId& id) const { return entries_.count(id) > 0; }
  Expected<VgpuInfo> Get(const GpuId& id) const;
  VgpuInfo* Find(const GpuId& id);

  std::vector<const VgpuInfo*> List() const;
  std::size_t size() const { return entries_.size(); }
  std::size_t CountOnNode(const std::string& node) const;

  /// Recounts the per-node device counts and replays every attachment's
  /// slice run and exclusion label against the devices. Test and recovery
  /// hook: any mismatch is a bug in a mutator.
  Status CheckIndexInvariants() const;

  /// Marks the acquisition complete (UUID learned from the launched pod).
  Status Activate(const GpuId& id, const GpuUuid& uuid);

  /// Reserves capacity and labels for `sharepod` on device `id`. Fails if
  /// the reservation would over-commit, or if the device is occupied and
  /// its exclusion label differs from the request's (an unlabelled request
  /// and an unlabelled device match; a label and no label do not); label
  /// sets are extended as Algorithm 1 lines 7/11-13 do.
  /// `slice_offset` applies only on spatial pools with gpu.slice_groups
  /// > 0: -1 lets the pool pick the first-fit (lowest-offset) free run; a
  /// concrete offset pins the exact groups (DevMgr rebuild re-attaching
  /// the placement the scheduler persisted in the SharePodSpec).
  Status Attach(const GpuId& id, const std::string& sharepod,
                const vgpu::ResourceSpec& gpu, const LocalitySpec& locality,
                int slice_offset = -1);

  /// The slice run (offset, groups) a sharePod holds, if it holds one.
  std::optional<std::pair<int, int>> SliceOf(const std::string& sharepod)
      const;

  /// Pool-wide slice fragmentation ratio (0 on non-spatial pools).
  double FragmentationRatio() const;

  /// Adjusts an existing attachment's compute reservation in place
  /// (vertical resize). Fails if the new gpu_request does not fit the
  /// device's residual capacity (memory is not resizable: the container's
  /// allocations are already placed).
  Status UpdateAttachment(const std::string& sharepod, double gpu_request,
                          double gpu_limit);

  /// Releases the sharePod's reservation. Device label sets and usage are
  /// recomputed from the remaining attachments (the paper's pseudo-code
  /// only accumulates labels; for a long-lived pool they must decay when
  /// their contributors leave, or anti-affinity would block devices
  /// forever). Returns the device the sharePod was attached to.
  Expected<GpuId> Detach(const std::string& sharepod);

  /// Removes an idle vGPU from the pool (the deletion phase).
  Status Remove(const GpuId& id);

  /// GPUID of the device a sharePod is attached to, if any.
  std::optional<GpuId> DeviceOf(const std::string& sharepod) const;

  /// Crash model: drops every entry and attachment — the in-memory state
  /// a dead DevMgr loses. The id counter survives on purpose: GPUIDs
  /// already recorded in sharePod specs at the apiserver must never be
  /// re-minted for a different device after the restart.
  void Clear();

  /// Rebuild helper: after re-creating entries whose counter-derived ids
  /// ("vgpu-N") were recovered from the apiserver, advance the counter
  /// past the largest recovered N so fresh ids stay unique.
  void EnsureNextIdAtLeast(std::uint64_t next);

  /// Canonical full dump (sorted entries, %.6f usage) for state-equality
  /// assertions: a pool rebuilt from apiserver objects must render
  /// byte-identical to the never-crashed pool. Fixed precision absorbs the
  /// ulp drift of summing the same attachments in a different order.
  std::string DebugString() const;

 private:
  struct Attachment {
    GpuId device;
    vgpu::ResourceSpec gpu;
    LocalitySpec locality;
    int slice_offset = -1;  // -1: no slice held (temporal attachment)
  };

  void RecomputeDevice(VgpuInfo& dev);

  std::map<GpuId, VgpuInfo> entries_;
  std::map<std::string, Attachment> attachments_;
  std::uint64_t next_id_ = 1;
  bool memory_overcommit_ = false;
  double overcommit_factor_ = 0.0;  // 0: unbounded when over-committing
  int sm_groups_ = 0;  // 0: spatial sharing off

  // Devices per node, kept by Create/CreateWithId/Remove: FreePhysicalGpus
  // and gang admission read it on every decision.
  std::map<std::string, int> node_devices_;
};

}  // namespace ks::kubeshare
