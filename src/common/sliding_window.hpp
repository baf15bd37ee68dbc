#pragma once

#include <cstddef>
#include <deque>

#include "common/time.hpp"

namespace ks {

/// Tracks the fraction of a trailing time window during which some activity
/// was "on". The vGPU token backend uses one of these per container: the
/// activity is "holds the token", and the resulting fraction is the
/// container's GPU usage rate that the elastic allocation policy compares
/// against gpu_request / gpu_limit (paper §4.5).
///
/// Intervals are recorded as half-open [start, end). The tracker tolerates
/// an open interval (activity started, not yet finished) — usage queries
/// count it up to the query time.
///
/// Queries are amortized O(1): every closed interval carries the running
/// busy total recorded before it, so the busy time of a window is one
/// subtraction from the head interval that still overlaps it, and a query
/// cursor advances that head as the window slides. Stop() trims intervals
/// that left the window, so memory stays bounded by one window's worth of
/// intervals. Queries must not ask about times before the last Start/Stop
/// (the simulation clock never runs backwards); among themselves they may
/// come in any order.
class SlidingWindowUsage {
 public:
  explicit SlidingWindowUsage(Duration window) : window_(window) {}

  Duration window() const { return window_; }

  /// Marks the activity as on at time `now`. No-op if already on.
  void Start(Time now);

  /// Marks the activity as off at time `now`. No-op if already off.
  void Stop(Time now);

  bool active() const { return active_; }

  /// Busy time within [now - window, now].
  Duration BusyTime(Time now) const;

  /// Busy fraction of the trailing window, in [0, 1].
  ///
  /// Before a full window has elapsed since construction the denominator is
  /// the elapsed time, not the window length — so a container that has held
  /// the token for all of the first second reports usage 1.0, not 0.1. This
  /// matches how the paper's backend can start throttling immediately after
  /// a container launches.
  double Usage(Time now) const;

  /// Drops intervals that ended before now - window. Stop() calls it, so
  /// callers never need to.
  void Compact(Time now);

 private:
  struct Interval {
    Time start;
    Time end;
    /// Busy time of every interval recorded before this one.
    Duration busy_before;
  };

  Time Cutoff(Time now) const {
    return now.count() > window_.count() ? now - window_ : kTimeZero;
  }

  Duration window_;
  std::deque<Interval> intervals_;
  /// Busy time of every closed interval ever recorded.
  Duration busy_total_{0};
  bool active_ = false;
  Time active_since_{0};
  Time origin_{0};
  bool origin_set_ = false;
  /// Query cursor: index of the first interval ending after `head_cutoff_`,
  /// the window start of the latest query.
  mutable std::size_t head_ = 0;
  mutable Time head_cutoff_{0};
};

}  // namespace ks
