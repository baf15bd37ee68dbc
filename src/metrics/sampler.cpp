#include "metrics/sampler.hpp"

#include <algorithm>
#include <cassert>

namespace ks::metrics {

PeriodicSampler::PeriodicSampler(sim::TickHub* hub, Duration period,
                                 Probe probe)
    : hub_(hub), period_(period), probe_(std::move(probe)) {
  assert(period_.count() > 0);
  assert(probe_);
}

PeriodicSampler::~PeriodicSampler() { Stop(); }

void PeriodicSampler::Start() {
  if (sub_ != 0) return;
  sub_ = hub_->Subscribe(period_, [this] {
    series_.push_back({hub_->sim()->Now(), probe_()});
  });
}

void PeriodicSampler::Stop() {
  if (sub_ == 0) return;
  hub_->Unsubscribe(sub_);
  sub_ = 0;
}

double PeriodicSampler::MaxValue() const {
  double best = 0.0;
  for (const Sample& s : series_) best = std::max(best, s.value);
  return best;
}

double PeriodicSampler::MeanValue() const {
  if (series_.empty()) return 0.0;
  double total = 0.0;
  for (const Sample& s : series_) total += s.value;
  return total / static_cast<double>(series_.size());
}

}  // namespace ks::metrics
