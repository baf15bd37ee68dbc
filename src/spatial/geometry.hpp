#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace ks::spatial {

/// Cluster-wide spatial sharing knobs. Disabled by default: every sharePod
/// then claims the whole GPU and the token daemon stays strictly temporal
/// (one token per device), byte-equal to the pre-spatial system.
struct SpatialConfig {
  bool enabled = false;
  /// SM groups per GPU. 7 matches the A100 MIG compute-slice granularity
  /// (1g..7g profiles); any value in [1, 64] is accepted.
  int sm_groups = 7;
};

/// Occupancy bitmap over one GPU's SM groups. Slices are contiguous group
/// runs (MIG placement rule); allocation is first-fit at the lowest
/// offset, which keeps free space consolidated at the high end and makes
/// allocation order deterministic.
class SliceMap {
 public:
  SliceMap() = default;
  explicit SliceMap(int groups);

  int groups() const { return groups_; }
  int FreeGroups() const;
  int UsedGroups() const { return groups_ - FreeGroups(); }

  bool InRange(int offset, int len) const;
  bool IsFree(int offset, int len) const;

  /// Lowest offset of a free contiguous run of `len` groups, or nullopt.
  std::optional<int> FirstFit(int len) const;

  Status Occupy(int offset, int len);
  Status Release(int offset, int len);

  /// Length of the longest free contiguous run.
  int LargestFreeRun() const;

  /// Per-device fragmentation: 1 - largest_free_run / free_groups, i.e.
  /// the fraction of free capacity that is unusable by the largest slice
  /// that could otherwise fit. 0 when fully free, fully used, or when the
  /// free space is one contiguous run.
  double FragmentationScore() const;

  /// Occupancy picture, '#' used / '.' free, e.g. "##..#..".
  std::string DebugString() const;

  friend bool operator==(const SliceMap& a, const SliceMap& b) {
    return a.groups_ == b.groups_ && a.mask_ == b.mask_;
  }
  friend bool operator!=(const SliceMap& a, const SliceMap& b) {
    return !(a == b);
  }

 private:
  int groups_ = 0;
  std::uint64_t mask_ = 0;  // bit g set => group g occupied
};

/// Pool-level fragmentation ratio across devices:
/// 1 - sum(largest free run) / sum(free groups). 0 when nothing is free.
double PoolFragmentationRatio(const std::vector<const SliceMap*>& maps);

}  // namespace ks::spatial
