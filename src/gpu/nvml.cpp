#include "gpu/nvml.hpp"

#include <cassert>

namespace ks::gpu {

namespace {
const std::vector<NvmlSample> kNoSamples;
}

NvmlMonitor::NvmlMonitor(sim::TickHub* hub, Duration period)
    : hub_(hub), sim_(hub->sim()), period_(period) {
  assert(period_.count() > 0);
}

void NvmlMonitor::Register(GpuDevice* device) {
  assert(device != nullptr);
  assert(samples_.count(device->uuid()) == 0 && "device registered twice");
  slots_.push_back({device, &samples_[device->uuid()],
                    device->utilization().TotalBusy()});
}

void NvmlMonitor::Start() {
  if (running_) return;
  running_ = true;
  last_tick_ = sim_->Now();
  sub_ = hub_->Subscribe(period_, [this] { Tick(); });
}

void NvmlMonitor::Stop() {
  if (!running_) return;
  running_ = false;
  hub_->Unsubscribe(sub_);
  sub_ = 0;
}

void NvmlMonitor::Tick() {
  const Time now = sim_->Now();
  const auto elapsed = now - last_tick_;
  for (Slot& slot : slots_) {
    GpuDevice* dev = slot.device;
    dev->utilization().Flush(now);
    const Duration busy_total = dev->utilization().TotalBusy();
    const Duration busy_delta = busy_total - slot.busy_at_last_tick;
    slot.busy_at_last_tick = busy_total;
    NvmlSample s;
    s.at = now;
    s.gpu_util = elapsed.count() > 0
                     ? static_cast<double>(busy_delta.count()) /
                           static_cast<double>(elapsed.count())
                     : 0.0;
    s.mem_used = static_cast<double>(dev->used_memory()) /
                 static_cast<double>(dev->spec().memory_bytes);
    slot.samples->push_back(s);
  }
  last_tick_ = now;
}

const std::vector<NvmlSample>& NvmlMonitor::SamplesFor(
    const GpuUuid& uuid) const {
  auto it = samples_.find(uuid);
  if (it == samples_.end()) return kNoSamples;
  return it->second;
}

double NvmlMonitor::AverageUtilization(const GpuUuid& uuid) const {
  const auto& s = SamplesFor(uuid);
  if (s.empty()) return 0.0;
  double total = 0.0;
  for (const NvmlSample& x : s) total += x.gpu_util;
  return total / static_cast<double>(s.size());
}

double NvmlMonitor::AverageUtilizationAcrossActive(std::size_t i) const {
  double total = 0.0;
  std::size_t active = 0;
  for (const auto& [uuid, series] : samples_) {
    if (i >= series.size()) continue;
    bool was_active = false;
    for (std::size_t k = 0; k <= i; ++k) {
      if (series[k].gpu_util > 0.0) {
        was_active = true;
        break;
      }
    }
    if (!was_active) continue;
    total += series[i].gpu_util;
    ++active;
  }
  return active > 0 ? total / static_cast<double>(active) : 0.0;
}

}  // namespace ks::gpu
