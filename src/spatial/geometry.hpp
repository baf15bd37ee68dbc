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

/// A MIG-style slice profile: `groups` contiguous SM groups out of the
/// device total, with proportional compute throughput and a memory wall.
struct SliceProfile {
  int groups = 0;
  /// Fraction of the device's SMs (and thus peak throughput) the slice
  /// owns. Linear in groups, as MIG compute slices are.
  double compute_fraction = 0.0;
  /// Fraction of device memory the slice may allocate before OOM.
  double memory_fraction = 0.0;
};

/// The static slice geometry of one GPU model: how many SM groups it has
/// and what each k-group profile provides. Pure arithmetic — no state.
class SliceGeometry {
 public:
  explicit SliceGeometry(int sm_groups = 7);

  int sm_groups() const { return sm_groups_; }

  /// Profile of a `groups`-wide slice; `groups` is clamped to
  /// [1, sm_groups].
  SliceProfile Profile(int groups) const;

  double ComputeFraction(int groups) const;
  std::uint64_t MemoryWallBytes(int groups, std::uint64_t device_bytes) const;

 private:
  int sm_groups_;
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
