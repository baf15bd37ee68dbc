#pragma once

#include <cstdint>
#include <map>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace ks::baselines {

/// nvshare-style anti-thrashing knobs. nvshare (an open-source transparent
/// GPU sharing layer) oversubscribes device memory via unified-memory
/// paging and, when the working sets no longer fit, serializes the
/// contending processes with an exclusive time quantum (30 s by default)
/// so each gets long bursts of residency instead of swapping on every
/// token hand-off. Off by default: with `enabled == false` the token
/// backend's grant path is bit-for-bit unchanged.
struct NvshareTqConfig {
  bool enabled = false;
  /// Exclusive quantum granted to a memory-pressured holder while its
  /// device is in TQ rotation (replaces BackendConfig::quota).
  Duration quantum = Seconds(30);
  /// A device engages TQ when its swap traffic within one detection
  /// window reaches this many bytes (swap-bytes-per-interval threshold).
  std::uint64_t thrash_threshold_bytes = 1ull << 30;
  /// Window over which swap traffic is accumulated.
  Duration detect_window = Seconds(2);
  /// Consecutive calm (below-threshold) windows before a device leaves TQ
  /// rotation and returns to normal sharing.
  int calm_windows = 2;
};

/// Per-device thrash detector + TQ state machine. Deterministic: state
/// depends only on the (report, query) call sequence and their times, so
/// runs replay byte-equal regardless of wall clock or thread count.
///
/// Header-only and dependent only on common/ so the token backend
/// (src/vgpu/) can embed it without a ks_vgpu -> ks_baselines link cycle.
class TqController {
 public:
  explicit TqController(NvshareTqConfig config = {}) : config_(config) {}

  const NvshareTqConfig& config() const { return config_; }

  /// Accounts `bytes` of swap traffic on `device` at `now` (reported by
  /// the frontend hooks after each MakeResident).
  void OnSwapBytes(const GpuUuid& device, std::uint64_t bytes, Time now) {
    if (!config_.enabled || bytes == 0) return;
    Roll(StateOf(device), now);
    StateOf(device).window_bytes += bytes;
  }

  /// True when `device` is under TQ rotation at `now`. Evaluated at grant
  /// time: window boundaries roll forward first, so a device whose swap
  /// traffic stayed calm for `calm_windows` windows disengages here.
  bool Engaged(const GpuUuid& device, Time now) {
    if (!config_.enabled) return false;
    DeviceState& s = StateOf(device);
    Roll(s, now);
    return s.engaged;
  }

  /// Times a device switched from sharing to TQ rotation.
  std::uint64_t engagements() const { return engagements_; }

  /// Non-rolling peek at a device's engagement state (metrics export; the
  /// grant path uses Engaged() so windows advance deterministically with
  /// grant times only).
  bool EngagedNow(const GpuUuid& device) const {
    auto it = devices_.find(device);
    return it != devices_.end() && it->second.engaged;
  }

 private:
  struct DeviceState {
    Time window_start{0};
    std::uint64_t window_bytes = 0;
    bool engaged = false;
    int calm = 0;
  };

  DeviceState& StateOf(const GpuUuid& device) { return devices_[device]; }

  /// Closes every detection window that ended before `now`, updating the
  /// engage/disengage state once per closed window.
  void Roll(DeviceState& s, Time now) {
    while (now >= s.window_start + config_.detect_window) {
      const bool thrashing =
          s.window_bytes >= config_.thrash_threshold_bytes;
      if (thrashing) {
        if (!s.engaged) {
          s.engaged = true;
          ++engagements_;
        }
        s.calm = 0;
      } else if (s.engaged) {
        if (++s.calm >= config_.calm_windows) {
          s.engaged = false;
          s.calm = 0;
        }
      }
      s.window_bytes = 0;
      s.window_start = s.window_start + config_.detect_window;
    }
  }

  NvshareTqConfig config_;
  std::map<GpuUuid, DeviceState> devices_;
  std::uint64_t engagements_ = 0;
};

}  // namespace ks::baselines
