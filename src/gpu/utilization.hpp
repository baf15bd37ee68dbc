#pragma once

#include "common/time.hpp"

namespace ks::gpu {

/// Records a device's total busy time. The recorder is fed Start/Stop
/// transitions by the execution engine; overlapping activity must be
/// coalesced by the caller (the engine reports device-level busy, i.e. >= 1
/// active kernel). Per-period utilization is NvmlMonitor's: it samples the
/// growth of TotalBusy() once per poll.
class UtilizationTracker {
 public:
  void Start(Time now);
  void Stop(Time now);
  bool active() const { return active_; }

  /// Total busy time recorded so far. An in-progress busy interval counts
  /// only up to the last Flush().
  Duration TotalBusy() const { return total_busy_; }

  /// Accounts the open interval (if any) up to `now` without closing it.
  /// Call before reading TotalBusy() mid-activity.
  void Flush(Time now);

 private:
  bool active_ = false;
  Time active_since_{0};
  Duration total_busy_{0};
};

}  // namespace ks::gpu
