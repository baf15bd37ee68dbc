#pragma once

#include <cstdint>
#include <functional>
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
///
/// No sample history is kept. Each device folds its samples into running
/// aggregates, the poll folds each tick into the mean over ever-active
/// devices, and only the last kWindow samples per device stay readable, like
/// the NVIDIA sample buffer that nvmlDeviceGetSamples reads. A reader that
/// needs every sample attaches a SampleFn.
class NvmlMonitor {
 public:
  /// Samples SamplesFor() keeps per device. Its longest reader looks at
  /// three consecutive samples; 64 is about a minute of 1 s polls, at 1.5 KB
  /// a device.
  static constexpr std::size_t kWindow = 64;

  /// Sees every sample of every device, in registration order per tick.
  using SampleFn = std::function<void(const GpuUuid&, const NvmlSample&)>;

  explicit NvmlMonitor(sim::TickHub* hub, Duration period = Seconds(1.0));

  /// Adds a device to the poll, once per UUID; ticks sample devices in
  /// registration order.
  void Register(GpuDevice* device);

  /// Busy time that accrued while the poll was stopped counts in no sample.
  void Start();
  void Stop();
  bool running() const { return running_; }

  void SetSampleFn(SampleFn fn) { sample_fn_ = std::move(fn); }

  /// The device's latest samples, at most kWindow, oldest first.
  std::vector<NvmlSample> SamplesFor(const GpuUuid& uuid) const;

  /// Mean gpu_util across all samples of one device.
  double AverageUtilization(const GpuUuid& uuid) const;

  /// Fig 9's utilization of active GPUs: per tick, the mean gpu_util over
  /// the devices busy in some sample so far (skipping ticks with none),
  /// averaged over those ticks.
  double MeanActiveUtilization() const;

 private:
  /// One registered device, polled in registration order. Its last
  /// min(samples, kWindow) samples sit in window_[index * kWindow, ...) as
  /// a ring.
  struct Slot {
    GpuDevice* device;
    Duration busy_at_last_tick;
    std::uint64_t samples = 0;
    double util_sum = 0.0;
    bool ever_active = false;
  };

  void Tick();
  const Slot* Find(const GpuUuid& uuid) const;

  sim::TickHub* hub_;
  sim::Simulation* sim_;  // hub_->sim(), held for the per-tick clock read
  Duration period_;
  bool running_ = false;
  sim::TickHub::SubId sub_ = 0;
  Time last_tick_{0};
  SampleFn sample_fn_;

  std::vector<Slot> slots_;
  std::vector<NvmlSample> window_;  // sized at the first tick
  double active_util_sum_ = 0.0;
  std::uint64_t active_ticks_ = 0;
};

}  // namespace ks::gpu
