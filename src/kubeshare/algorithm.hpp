#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "kubeshare/algorithm_variant.hpp"
#include "kubeshare/pool.hpp"

namespace ks::kubeshare {

/// A scheduling request: the `r` of Algorithm 1.
struct ScheduleRequest {
  std::string sharepod;
  vgpu::ResourceSpec gpu;
  LocalitySpec locality;
  /// If non-empty, the user pinned the node (SharePodSpec.nodeName); the
  /// device must live there.
  std::string node_constraint;
};

/// Per-node count of physical GPUs not yet converted into vGPUs (and not
/// held by native pods) — the supply new_dev() can draw from.
struct NodeFreeGpus {
  std::string node;
  int free = 0;
};

/// Locality & Resource Aware Scheduling — the paper's Algorithm 1,
/// implemented verbatim as one scan over pool.List():
///
///  Step 1  If the request carries an affinity label and a device already
///          has it, the request MUST go there; exclusion/anti-affinity/
///          capacity conflicts are hard rejections (kRejected). If no
///          device carries the label yet, prefer an idle device, else a
///          new one, so future same-affinity requests have room.
///  Step 2  Otherwise filter devices by exclusion, anti-affinity and
///          residual resources (idle devices pass trivially).
///  Step 3  best-fit among devices WITHOUT affinity labels; then worst-fit
///          among devices WITH affinity labels (keep labelled devices
///          roomy for their future co-residents); finally a new device.
///
/// Each decision costs O(pool): the scan, plus a per-node attach count
/// rebuilt for the tie-break.
///
/// On success the placement is reserved in the pool (Attach / Create) and
/// the GPUID is returned. Error codes distinguish outcomes:
///   kRejected     — constraint violation, terminal ("return -1");
///   kUnavailable  — no capacity now, the caller should retry later
///                   (new_dev() needs a free physical GPU).
Expected<GpuId> ScheduleSharePod(VgpuPool& pool, const ScheduleRequest& r,
                                 const std::vector<NodeFreeGpus>& free_gpus,
                                 PlacementVariant variant =
                                     PlacementVariant::kPaper);

}  // namespace ks::kubeshare
