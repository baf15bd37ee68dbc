#include "gpu/nvml.hpp"

#include <algorithm>
#include <cassert>

namespace ks::gpu {

NvmlMonitor::NvmlMonitor(sim::TickHub* hub, Duration period)
    : hub_(hub), sim_(hub->sim()), period_(period) {
  assert(period_.count() > 0);
}

void NvmlMonitor::Register(GpuDevice* device) {
  assert(device != nullptr);
  assert(Find(device->uuid()) == nullptr && "device registered twice");
  slots_.push_back({device, device->utilization().TotalBusy()});
}

void NvmlMonitor::Start() {
  if (running_) return;
  running_ = true;
  last_tick_ = sim_->Now();
  for (Slot& slot : slots_) {
    slot.device->utilization().Flush(last_tick_);
    slot.busy_at_last_tick = slot.device->utilization().TotalBusy();
  }
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
  if (window_.size() < slots_.size() * kWindow) {
    window_.resize(slots_.size() * kWindow);
  }
  double active_total = 0.0;
  std::size_t active = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    GpuDevice* dev = slot.device;
    dev->utilization().Flush(now);
    const Duration busy_total = dev->utilization().TotalBusy();
    const Duration busy_delta = busy_total - slot.busy_at_last_tick;
    slot.busy_at_last_tick = busy_total;
    NvmlSample& s = window_[i * kWindow + slot.samples % kWindow];
    s.at = now;
    s.gpu_util = elapsed.count() > 0
                     ? static_cast<double>(busy_delta.count()) /
                           static_cast<double>(elapsed.count())
                     : 0.0;
    s.mem_used = static_cast<double>(dev->used_memory()) /
                 static_cast<double>(dev->spec().memory_bytes);
    ++slot.samples;
    slot.util_sum += s.gpu_util;
    if (s.gpu_util > 0.0) slot.ever_active = true;
    if (slot.ever_active) {
      active_total += s.gpu_util;
      ++active;
    }
  }
  if (active > 0) {
    active_util_sum_ += active_total / static_cast<double>(active);
    ++active_ticks_;
  }
  last_tick_ = now;
  if (sample_fn_) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      sample_fn_(slot.device->uuid(),
                 window_[i * kWindow + (slot.samples - 1) % kWindow]);
    }
  }
}

const NvmlMonitor::Slot* NvmlMonitor::Find(const GpuUuid& uuid) const {
  for (const Slot& slot : slots_) {
    if (slot.device->uuid() == uuid) return &slot;
  }
  return nullptr;
}

std::vector<NvmlSample> NvmlMonitor::SamplesFor(const GpuUuid& uuid) const {
  std::vector<NvmlSample> out;
  const Slot* slot = Find(uuid);
  if (slot == nullptr || slot->samples == 0) return out;
  const NvmlSample* ring = window_.data() + (slot - slots_.data()) * kWindow;
  const std::uint64_t kept = std::min<std::uint64_t>(slot->samples, kWindow);
  for (std::uint64_t k = slot->samples - kept; k < slot->samples; ++k) {
    out.push_back(ring[k % kWindow]);
  }
  return out;
}

double NvmlMonitor::AverageUtilization(const GpuUuid& uuid) const {
  const Slot* slot = Find(uuid);
  if (slot == nullptr || slot->samples == 0) return 0.0;
  return slot->util_sum / static_cast<double>(slot->samples);
}

double NvmlMonitor::MeanActiveUtilization() const {
  return active_ticks_ > 0
             ? active_util_sum_ / static_cast<double>(active_ticks_)
             : 0.0;
}

}  // namespace ks::gpu
