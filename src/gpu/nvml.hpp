#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "gpu/device.hpp"
#include "sim/simulation.hpp"
#include "sim/tick_hub.hpp"

namespace ks::gpu {

/// One utilization sample, in the style of nvmlDeviceGetUtilizationRates.
struct NvmlSample {
  Time at{0};
  double gpu_util = 0.0;   // fraction of the sample period with a kernel active
  double mem_used = 0.0;   // fraction of device memory allocated
};

/// Periodic utilization monitor modeled after the NVML polling loop the
/// paper uses to produce Fig 5 and Fig 9 ("the overall utilization of a GPU
/// is measured by the GPU usage value reported by the Nvidia NVML library").
///
/// The monitor samples each registered device every `period`, recording the
/// busy fraction of the elapsed period. Start() subscribes the poll to the
/// sim::TickHub, whose shared tick carries every periodic instrument; the
/// poll stops when Stop() is called. A hub of granularity 0 fires at exact
/// multiples of `period`.
class NvmlMonitor {
 public:
  explicit NvmlMonitor(sim::TickHub* hub, Duration period = Seconds(1.0));

  /// Adds a device to the poll, once per UUID; ticks sample devices in
  /// registration order.
  void Register(GpuDevice* device);

  void Start();
  void Stop();
  bool running() const { return running_; }

  const std::vector<NvmlSample>& SamplesFor(const GpuUuid& uuid) const;

  /// Mean gpu_util across all samples of one device.
  double AverageUtilization(const GpuUuid& uuid) const;

  /// Mean gpu_util at sample index `i` across devices that were busy at
  /// least once by then ("active" devices, Fig 9's numerator).
  double AverageUtilizationAcrossActive(std::size_t i) const;

 private:
  void Tick();

  sim::TickHub* hub_;
  sim::Simulation* sim_;  // hub_->sim(), held for the per-tick clock read
  Duration period_;
  bool running_ = false;
  sim::TickHub::SubId sub_ = 0;
  Time last_tick_{0};

  /// One registered device, polled in registration order: its sample
  /// series (a stable pointer into samples_) and its busy total at the
  /// previous tick.
  struct Slot {
    GpuDevice* device;
    std::vector<NvmlSample>* samples;
    Duration busy_at_last_tick;
  };

  std::vector<Slot> slots_;
  std::unordered_map<GpuUuid, std::vector<NvmlSample>> samples_;
};

}  // namespace ks::gpu
