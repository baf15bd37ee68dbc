#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace ks::gpu {

/// Records device busy time into fixed-size buckets so utilization can be
/// queried per time slice (Fig 9 timeline) or over an arbitrary range
/// (overall utilization). The recorder is fed Start/Stop transitions by the
/// execution engine; overlapping activity must be coalesced by the caller
/// (the engine reports device-level busy, i.e. >= 1 active kernel).
class UtilizationTracker {
 public:
  explicit UtilizationTracker(Duration bucket = Seconds(1.0));

  void Start(Time now);
  void Stop(Time now);
  bool active() const { return active_; }

  /// Busy fraction of bucket `index` ([index*bucket, (index+1)*bucket)).
  /// Buckets past the last recorded activity report 0. An in-progress busy
  /// interval is counted up to `now` if provided via Flush().
  double BucketUtilization(std::size_t index) const;

  /// Busy fraction over [from, to).
  double RangeUtilization(Time from, Time to) const;

  /// Total busy time recorded so far.
  Duration TotalBusy() const { return total_busy_; }

  /// Accounts the open interval (if any) up to `now` without closing it.
  /// Call before reading utilization mid-activity.
  void Flush(Time now);

 private:
  void Accumulate(Time from, Time to);

  Duration bucket_;
  std::vector<Duration> buckets_;
  bool active_ = false;
  Time active_since_{0};
  Duration total_busy_{0};
};

}  // namespace ks::gpu
