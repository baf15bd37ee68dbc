#include "kubeshare/algorithm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace ks::kubeshare {

namespace {

constexpr double kEps = 1e-9;

bool NodeAllowed(const ScheduleRequest& r, const std::string& node) {
  return r.node_constraint.empty() || r.node_constraint == node;
}

bool FitsResources(const ScheduleRequest& r, const VgpuInfo& d,
                   double mem_capacity) {
  if (r.gpu.gpu_request > d.residual_util() + kEps) return false;
  // mem_capacity is 1.0 normally, the oversubscription factor (or
  // infinity) under over-commitment — VgpuPool::mem_capacity().
  return r.gpu.gpu_mem <= mem_capacity - d.used_mem + kEps;
}

/// Slice feasibility on spatial pools: the claim needs a free contiguous
/// SM-group run. Trivially true for temporal requests and on non-spatial
/// pools (idle devices are fully free, so they always pass).
bool FitsSlices(const ScheduleRequest& r, const VgpuInfo& d, bool spatial) {
  if (!spatial || r.gpu.slice_groups <= 0) return true;
  return d.slices.FirstFit(r.gpu.slice_groups).has_value();
}

/// Fragmentation the device would have after first-fit placing the claim:
/// the packing score of the fragmentation-aware Step 3 (lower is better —
/// keep the surviving free space in large contiguous runs).
double PostPlacementFragmentation(const VgpuInfo& d, int claim) {
  spatial::SliceMap map = d.slices;
  const auto fit = map.FirstFit(claim);
  assert(fit.has_value());
  const Status occupied = map.Occupy(*fit, claim);
  assert(occupied.ok());
  (void)occupied;
  return map.FragmentationScore();
}

/// Picks the node with the most free physical GPUs (spreading new vGPUs,
/// so the native scheduler keeps room too). Returns nullptr when no node
/// has supply.
const NodeFreeGpus* PickNodeForNewDevice(
    const ScheduleRequest& r, const std::vector<NodeFreeGpus>& free_gpus) {
  const NodeFreeGpus* best = nullptr;
  for (const NodeFreeGpus& n : free_gpus) {
    if (n.free <= 0 || !NodeAllowed(r, n.node)) continue;
    if (best == nullptr || n.free > best->free) best = &n;
  }
  return best;
}

/// Reserves `r` on device `id` and returns the GPUID, or Attach's error.
Expected<GpuId> AttachOrPropagate(VgpuPool& pool, GpuId id,
                                  const ScheduleRequest& r) {
  const Status s = pool.Attach(id, r.sharepod, r.gpu, r.locality);
  if (!s.ok()) return s;
  return id;
}

}  // namespace

Expected<GpuId> ScheduleSharePod(VgpuPool& pool, const ScheduleRequest& r,
                                 const std::vector<NodeFreeGpus>& free_gpus,
                                 PlacementVariant variant) {
  KS_RETURN_IF_ERROR(r.gpu.Validate());
  const bool sliced = pool.spatial_enabled() && r.gpu.slice_groups > 0;
  if (sliced && r.gpu.slice_groups > pool.sm_groups()) {
    return RejectedError("slice claim exceeds device geometry");
  }

  const auto devices = pool.List();

  // ---- Step 1: affinity label (lines 1-14) ---------------------------
  if (r.locality.affinity.has_value()) {
    const VgpuInfo* labelled = nullptr;
    for (const VgpuInfo* d : devices) {
      if (d->affinity.count(*r.locality.affinity) > 0 &&
          NodeAllowed(r, d->node)) {
        labelled = d;
        break;
      }
    }
    if (labelled != nullptr) {
      // The affinity constraint forces this device; any conflict is a hard
      // rejection (lines 4-6).
      if (r.locality.exclusion != labelled->exclusion) {
        return RejectedError("exclusion conflict with affinity device " +
                             labelled->id.value());
      }
      if (r.locality.anti_affinity.has_value() &&
          labelled->anti_affinity.count(*r.locality.anti_affinity) > 0) {
        return RejectedError("anti-affinity conflict on affinity device " +
                             labelled->id.value());
      }
      if (!FitsResources(r, *labelled, pool.mem_capacity())) {
        return RejectedError("insufficient resources on affinity device " +
                             labelled->id.value());
      }
      if (!FitsSlices(r, *labelled, pool.spatial_enabled())) {
        return RejectedError("insufficient slice groups on affinity device " +
                             labelled->id.value());
      }
      return AttachOrPropagate(pool, labelled->id, r);
    }
    // First container of this affinity group: prefer an idle device so the
    // group has maximal room (lines 9-14), else create one.
    for (const VgpuInfo* d : devices) {
      if (d->idle() && NodeAllowed(r, d->node)) {
        return AttachOrPropagate(pool, d->id, r);
      }
    }
    const NodeFreeGpus* node = PickNodeForNewDevice(r, free_gpus);
    if (node == nullptr) {
      return UnavailableError("no free physical GPU for new vGPU");
    }
    VgpuInfo& fresh = pool.Create(node->node);
    return AttachOrPropagate(pool, fresh.id, r);
  }

  // ---- Step 2: filter by exclusion / anti-affinity / resources
  //      (lines 15-20; idle devices skip the checks, line 17) -----------
  std::vector<const VgpuInfo*> candidates;
  for (const VgpuInfo* d : devices) {
    if (!NodeAllowed(r, d->node)) continue;
    if (d->idle()) {
      candidates.push_back(d);
      continue;
    }
    const bool excl_conflict =
        (r.locality.exclusion.has_value() || d->exclusion.has_value()) &&
        r.locality.exclusion != d->exclusion;
    if (excl_conflict) continue;
    if (r.locality.anti_affinity.has_value() &&
        d->anti_affinity.count(*r.locality.anti_affinity) > 0) {
      continue;
    }
    if (!FitsResources(r, *d, pool.mem_capacity())) continue;
    if (!FitsSlices(r, *d, pool.spatial_enabled())) continue;
    candidates.push_back(d);
  }

  // ---- Step 3: placement (lines 21-26) --------------------------------
  // Ties (typical among idle devices, which all have full residual) break
  // toward the least-loaded node so simultaneous placements spread like
  // the native scheduler's instead of queueing on one kubelet.
  std::map<std::string, int> node_attached;
  for (const VgpuInfo* d : devices) {
    node_attached[d->node] += static_cast<int>(d->attached.size());
  }
  auto tie_break_better = [&](const VgpuInfo* d, const VgpuInfo* pick) {
    return node_attached[d->node] < node_attached[pick->node];
  };
  // Fragmentation-aware packing: on spatial pools a slice claim ranks
  // candidates first by post-placement fragmentation (lowest wins), so
  // slices consolidate and large free runs survive; residual capacity and
  // the node tie-break only order devices whose fragmentation ties.
  // Returns <0 / 0 / >0 like strcmp; always 0 for temporal requests.
  auto frag_compare = [&](const VgpuInfo* d, const VgpuInfo* pick) {
    if (!sliced) return 0;
    const double fd = PostPlacementFragmentation(*d, r.gpu.slice_groups);
    const double fp = PostPlacementFragmentation(*pick, r.gpu.slice_groups);
    if (fd < fp - kEps) return -1;
    if (fd > fp + kEps) return 1;
    return 0;
  };
  auto best_fit = [&](bool labelled) {
    const VgpuInfo* pick = nullptr;
    for (const VgpuInfo* d : candidates) {
      if (d->affinity.empty() == labelled) continue;
      if (pick == nullptr) {
        pick = d;
        continue;
      }
      const int frag = frag_compare(d, pick);
      if (frag > 0) continue;
      if (frag < 0 ||
          d->residual_util() < pick->residual_util() - kEps ||
          (std::abs(d->residual_util() - pick->residual_util()) <= kEps &&
           (d->residual_mem() < pick->residual_mem() - kEps ||
            (std::abs(d->residual_mem() - pick->residual_mem()) <= kEps &&
             tie_break_better(d, pick))))) {
        pick = d;
      }
    }
    return pick;
  };
  auto worst_fit = [&](bool labelled) {
    const VgpuInfo* pick = nullptr;
    for (const VgpuInfo* d : candidates) {
      if (d->affinity.empty() == labelled) continue;
      if (pick == nullptr) {
        pick = d;
        continue;
      }
      const int frag = frag_compare(d, pick);
      if (frag > 0) continue;
      if (frag < 0 ||
          d->residual_util() > pick->residual_util() + kEps ||
          (std::abs(d->residual_util() - pick->residual_util()) <= kEps &&
           (d->residual_mem() > pick->residual_mem() + kEps ||
            (std::abs(d->residual_mem() - pick->residual_mem()) <= kEps &&
             tie_break_better(d, pick))))) {
        pick = d;
      }
    }
    return pick;
  };

  const VgpuInfo* pick = nullptr;
  switch (variant) {
    case PlacementVariant::kPaper:
      // Best fit among unlabelled devices (squeeze into the tightest hole
      // so existing vGPUs fill up before new ones open), then worst fit
      // among labelled devices (leave them roomy for their groups).
      pick = best_fit(/*labelled=*/false);
      if (pick == nullptr) pick = worst_fit(/*labelled=*/true);
      break;
    case PlacementVariant::kWorstFitEverywhere:
      pick = worst_fit(false);
      if (pick == nullptr) pick = worst_fit(true);
      break;
    case PlacementVariant::kFirstFit:
      if (!candidates.empty()) pick = candidates.front();
      break;
  }
  if (pick != nullptr) {
    return AttachOrPropagate(pool, pick->id, r);
  }

  const NodeFreeGpus* node = PickNodeForNewDevice(r, free_gpus);
  if (node == nullptr) {
    return UnavailableError("no device fits and no free physical GPU");
  }
  VgpuInfo& fresh = pool.Create(node->node);
  return AttachOrPropagate(pool, fresh.id, r);
}

}  // namespace ks::kubeshare
