#pragma once

#include <functional>
#include <vector>

#include "common/time.hpp"
#include "sim/tick_hub.hpp"

namespace ks::metrics {

/// Periodically samples a scalar (pool size, active GPUs, queue depth, ...)
/// into a time series — the generic instrument behind the Fig 9 timelines.
///
/// The sampler subscribes to a shared sim::TickHub, so all instruments on a
/// hub multiplex onto (at most) one armed engine event. It samples at exact
/// multiples of its period from Start() whenever the period sits on the
/// hub's grid (a granularity-0 hub is exact to the microsecond). Probes must
/// be read-only: a sampler then leaves the run it watches unchanged.
class PeriodicSampler {
 public:
  using Probe = std::function<double()>;

  PeriodicSampler(sim::TickHub* hub, Duration period, Probe probe);

  ~PeriodicSampler();
  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  void Start();
  void Stop();

  struct Sample {
    Time at{0};
    double value = 0.0;
  };
  const std::vector<Sample>& series() const { return series_; }

  double MaxValue() const;
  double MeanValue() const;

 private:
  sim::TickHub* hub_;
  Duration period_;
  Probe probe_;
  sim::TickHub::SubId sub_ = 0;  // 0: stopped
  std::vector<Sample> series_;
};

}  // namespace ks::metrics
