#include "gpu/utilization.hpp"

namespace ks::gpu {

void UtilizationTracker::Start(Time now) {
  if (active_) return;
  active_ = true;
  active_since_ = now;
}

void UtilizationTracker::Stop(Time now) {
  Flush(now);
  active_ = false;
}

void UtilizationTracker::Flush(Time now) {
  if (!active_ || now <= active_since_) return;
  total_busy_ += now - active_since_;
  active_since_ = now;
}

}  // namespace ks::gpu
