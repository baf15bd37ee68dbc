#include "common/sliding_window.hpp"

#include <algorithm>
#include <cassert>

namespace ks {

void SlidingWindowUsage::Start(Time now) {
  if (!origin_set_) {
    origin_ = now;
    origin_set_ = true;
  }
  if (active_) return;
  active_ = true;
  active_since_ = now;
}

void SlidingWindowUsage::Stop(Time now) {
  if (!active_) return;
  assert(now >= active_since_);
  if (now > active_since_) {
    intervals_.push_back({active_since_, now, busy_total_});
    busy_total_ += now - active_since_;
  }
  active_ = false;
  Compact(now);
}

void SlidingWindowUsage::Compact(Time now) {
  const Time cutoff = Cutoff(now);
  std::size_t dropped = 0;
  while (!intervals_.empty() && intervals_.front().end <= cutoff) {
    intervals_.pop_front();
    ++dropped;
  }
  head_ = head_ > dropped ? head_ - dropped : 0;
}

Duration SlidingWindowUsage::BusyTime(Time now) const {
  assert(intervals_.empty() || now >= intervals_.back().end);
  const Time cutoff = Cutoff(now);
  if (cutoff < head_cutoff_) head_ = 0;  // the window moved back: rescan
  head_cutoff_ = cutoff;
  while (head_ < intervals_.size() && intervals_[head_].end <= cutoff) {
    ++head_;
  }
  Duration busy{0};
  if (head_ < intervals_.size()) {
    // Everything from the head interval on, minus the head's part before
    // the window.
    const Interval& head = intervals_[head_];
    busy = busy_total_ - head.busy_before;
    if (head.start < cutoff) busy -= cutoff - head.start;
  }
  if (active_ && now > active_since_) {
    const Time s = std::max(active_since_, cutoff);
    if (now > s) busy += now - s;
  }
  return busy;
}

double SlidingWindowUsage::Usage(Time now) const {
  Duration denom = window_;
  if (origin_set_ && now - origin_ < window_) {
    denom = now - origin_;
  }
  if (denom.count() <= 0) return active_ ? 1.0 : 0.0;
  const Duration busy = BusyTime(now);
  return std::min(1.0, static_cast<double>(busy.count()) /
                           static_cast<double>(denom.count()));
}

}  // namespace ks
