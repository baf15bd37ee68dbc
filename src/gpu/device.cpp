#include "gpu/device.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ks::gpu {

GpuDevice::GpuDevice(sim::Simulation* sim, GpuUuid uuid, GpuSpec spec)
    : sim_(sim), uuid_(std::move(uuid)), spec_(spec) {
  assert(sim_ != nullptr);
}

Expected<DevicePtr> GpuDevice::Allocate(const ContainerId& owner,
                                        std::uint64_t bytes) {
  if (bytes == 0) return InvalidArgumentError("zero-byte allocation");
  if (used_memory_ + bytes > spec_.memory_bytes) {
    return ResourceExhaustedError("device out of memory on " + uuid_.value());
  }
  const auto sa = slice_assign_.find(owner);
  if (sa != slice_assign_.end()) {
    // The slice's proportional share of device memory is a hard wall, like
    // a MIG instance's dedicated framebuffer.
    const auto wall = static_cast<std::uint64_t>(
        static_cast<double>(spec_.memory_bytes) *
        static_cast<double>(sa->second.groups) /
        static_cast<double>(sa->second.total));
    if (MemoryUsedBy(owner) + bytes > wall) {
      return ResourceExhaustedError("slice memory wall exceeded on " +
                                    uuid_.value());
    }
  }
  const auto quota = memory_quotas_.find(owner);
  if (quota != memory_quotas_.end() &&
      MemoryUsedBy(owner) + bytes > quota->second) {
    ++memory_quota_rejections_;
    if (violation_) violation_(owner, DeviceViolation::kMemoryQuota);
    return ResourceExhaustedError("memory quota exceeded on " +
                                  uuid_.value());
  }
  used_memory_ += bytes;
  const DevicePtr ptr = next_ptr_++;
  allocations_.emplace(ptr, Allocation{owner, bytes});
  return ptr;
}

Status GpuDevice::Free(DevicePtr ptr) {
  auto it = allocations_.find(ptr);
  if (it == allocations_.end()) {
    return NotFoundError("unknown device pointer");
  }
  used_memory_ -= it->second.bytes;
  allocations_.erase(it);
  return Status::Ok();
}

void GpuDevice::FreeAll(const ContainerId& owner) {
  for (auto it = allocations_.begin(); it != allocations_.end();) {
    if (it->second.owner == owner) {
      used_memory_ -= it->second.bytes;
      it = allocations_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t GpuDevice::MemoryUsedBy(const ContainerId& owner) const {
  std::uint64_t total = 0;
  for (const auto& [ptr, alloc] : allocations_) {
    if (alloc.owner == owner) total += alloc.bytes;
  }
  return total;
}

void GpuDevice::EnforceTokenGate(const ContainerId& owner) {
  token_gates_.emplace(owner, TokenGate{});  // keeps an existing gate's state
}

void GpuDevice::LiftTokenGate(const ContainerId& owner) {
  token_gates_.erase(owner);
}

void GpuDevice::AdmitTokenEpoch(const ContainerId& owner,
                                std::uint64_t epoch) {
  const auto it = token_gates_.find(owner);
  if (it == token_gates_.end()) return;
  it->second.epoch = std::max(it->second.epoch, epoch);
}

void GpuDevice::FenceTokenEpoch(const ContainerId& owner) {
  const auto it = token_gates_.find(owner);
  if (it == token_gates_.end()) return;
  it->second.floor = std::max(it->second.floor, it->second.epoch + 1);
}

bool GpuDevice::TokenGateAdmits(const ContainerId& owner) const {
  const auto it = token_gates_.find(owner);
  if (it == token_gates_.end()) return true;  // ungated owners unaffected
  return it->second.epoch >= it->second.floor;
}

std::uint64_t GpuDevice::FencedRejectionsOf(const ContainerId& owner) const {
  const auto it = token_gates_.find(owner);
  return it == token_gates_.end() ? 0 : it->second.rejections;
}

bool GpuDevice::RejectFencedSubmit(const ContainerId& owner) {
  const auto it = token_gates_.find(owner);
  if (it == token_gates_.end()) return false;
  if (it->second.epoch >= it->second.floor) return false;
  ++it->second.rejections;
  ++fenced_rejections_;
  if (violation_) violation_(owner, DeviceViolation::kFencedSubmit);
  return true;
}

void GpuDevice::SetMemoryQuota(const ContainerId& owner,
                               std::uint64_t bytes) {
  memory_quotas_[owner] = bytes;
}

void GpuDevice::ClearMemoryQuota(const ContainerId& owner) {
  memory_quotas_.erase(owner);
}

void GpuDevice::SetSliceAssignment(const ContainerId& owner, int groups,
                                   int total) {
  if (total < 1) total = 1;
  if (groups < 1) groups = 1;
  if (groups > total) groups = total;
  slice_assign_[owner] = SliceAssign{groups, total};
}

void GpuDevice::ClearSliceAssignment(const ContainerId& owner) {
  slice_assign_.erase(owner);
}

bool GpuDevice::HasSliceAssignment(const ContainerId& owner) const {
  return slice_assign_.count(owner) > 0;
}

void GpuDevice::MaybeStopUtilization(Time at) {
  if (running_.empty() && sliced_.empty() && migrations_.empty()) {
    util_.Stop(at);
  }
}

KernelId GpuDevice::Submit(const ContainerId& owner, const KernelDesc& desc,
                           std::function<void()> on_complete) {
  if (RejectFencedSubmit(owner)) return 0;
  if (HasSliceAssignment(owner)) {
    return SubmitSliced(owner, desc, std::move(on_complete));
  }
  Progress();
  Running r;
  r.id = next_kernel_++;
  r.owner = owner;
  r.bandwidth_demand = desc.bandwidth_demand;
  r.remaining = std::max(Duration{1}, desc.nominal_duration);
  r.name = desc.name;
  r.start = sim_->Now();
  r.on_done = std::move(on_complete);
  const KernelId id = r.id;
  running_.push_back(std::move(r));
  Reschedule();
  return id;
}

void GpuDevice::DetachOwner(const ContainerId& owner) {
  for (Running& r : running_) {
    if (r.owner == owner) r.on_done = nullptr;
  }
  for (auto& [seq, r] : sliced_) {
    if (r.owner == owner) r.on_done = nullptr;
  }
  for (auto& [seq, m] : migrations_) {
    if (m.owner == owner) m.on_done = nullptr;
  }
}

double GpuDevice::CurrentRatePerKernel() const {
  if (running_.empty()) return 0.0;
  double bw = 0.0;
  for (const Running& r : running_) bw += r.bandwidth_demand;
  const double stretch =
      std::max(1.0, bw / std::max(1e-9, spec_.bandwidth_capacity));
  return 1.0 / (static_cast<double>(running_.size()) * stretch);
}

void GpuDevice::Progress() {
  const Time now = sim_->Now();
  if (running_.empty() || now <= last_update_) {
    last_update_ = now;
    return;
  }
  const double rate = CurrentRatePerKernel();
  const auto elapsed = static_cast<double>((now - last_update_).count());
  const auto burn = Duration{static_cast<std::int64_t>(elapsed * rate)};
  for (Running& r : running_) {
    r.remaining = (r.remaining > burn) ? r.remaining - burn : Duration{0};
  }
  last_update_ = now;
}

void GpuDevice::Reschedule() {
  if (completion_event_ != sim::kInvalidEvent) {
    sim_->Cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  if (running_.empty()) {
    MaybeStopUtilization(sim_->Now());
    return;
  }
  util_.Start(sim_->Now());
  Duration min_remaining = running_.front().remaining;
  for (const Running& r : running_) {
    min_remaining = std::min(min_remaining, r.remaining);
  }
  const auto wall = Duration{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(min_remaining.count()) /
                CurrentRatePerKernel()))};
  completion_event_ = sim_->ScheduleAfter(std::max(Duration{0}, wall),
                                          [this] { OnCompletionEvent(); });
}

void GpuDevice::OnCompletionEvent() {
  completion_event_ = sim::kInvalidEvent;
  Progress();
  const Time now = sim_->Now();
  // Retire every kernel that has (numerically) finished. Callbacks run
  // after the running set is updated so re-entrant Submit() calls from a
  // callback see a consistent device state.
  for (auto it = running_.begin(); it != running_.end();) {
    // 1 us tolerance absorbs the floor/ceil rounding between Progress()
    // and the completion-event timing; without it a kernel could hover at
    // remaining == 1 and re-fire the event indefinitely.
    if (it->remaining <= Duration{1}) {
      ++completed_;
      RecordTrace(it->id, it->owner, it->name, it->start, now);
      retired_.push_back(std::move(it->on_done));
      it = running_.erase(it);
    } else {
      ++it;
    }
  }
  Reschedule();
  // A callback may submit, detach or tear its container down, but only the
  // next completion event, never a callback, writes this buffer.
  for (auto& fn : retired_) {
    if (fn) fn();
  }
  retired_.clear();
}

Duration GpuDevice::SlicedWallTime(const ContainerId& owner,
                                   const KernelDesc& desc) const {
  double fraction = 1.0;
  const auto it = slice_assign_.find(owner);
  if (it != slice_assign_.end()) {
    fraction = static_cast<double>(it->second.groups) /
               static_cast<double>(it->second.total);
  }
  // An isolated partition: the only stretch is the kernel demanding more
  // SMs than the slice has. Bandwidth contention does not apply.
  const double stretch = std::max(1.0, desc.sm_demand / std::max(1e-9, fraction));
  const auto nominal = std::max(Duration{1}, desc.nominal_duration);
  return Duration{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(nominal.count()) * stretch))};
}

KernelId GpuDevice::SubmitSliced(const ContainerId& owner,
                                 const KernelDesc& desc,
                                 std::function<void()> on_done) {
  const KernelId id = next_kernel_++;
  const Time start = sim_->Now();
  const Duration wall = SlicedWallTime(owner, desc);
  const std::uint64_t seq = next_slice_seq_++;
  SlicedRunning r;
  r.id = id;
  r.owner = owner;
  r.name = desc.name;
  r.start = start;
  r.finish = start + wall;
  r.on_done = std::move(on_done);
  r.event = sim_->ScheduleAfter(wall, [this, seq] { OnSlicedComplete(seq); });
  sliced_.emplace(seq, std::move(r));
  util_.Start(start);
  return id;
}

void GpuDevice::OnSlicedComplete(std::uint64_t seq) {
  auto it = sliced_.find(seq);
  if (it == sliced_.end()) return;
  SlicedRunning r = std::move(it->second);
  sliced_.erase(it);
  ++completed_;
  RecordTrace(r.id, r.owner, r.name, r.start, r.finish);
  MaybeStopUtilization(r.finish);
  if (r.on_done) r.on_done();
}

void GpuDevice::ChargeMigration(const ContainerId& owner, std::uint64_t bytes,
                                Duration duration,
                                std::function<void()> on_done) {
  ++migrations_charged_;
  migration_bytes_total_ += bytes;
  const std::uint64_t seq = next_migration_seq_++;
  Migration m;
  m.owner = owner;
  m.on_done = std::move(on_done);
  util_.Start(sim_->Now());
  m.event = sim_->ScheduleAfter(std::max(Duration{0}, duration),
                                [this, seq] { OnMigrationComplete(seq); });
  migrations_.emplace(seq, std::move(m));
}

void GpuDevice::OnMigrationComplete(std::uint64_t seq) {
  auto it = migrations_.find(seq);
  if (it == migrations_.end()) return;
  Migration m = std::move(it->second);
  migrations_.erase(it);
  MaybeStopUtilization(sim_->Now());
  if (m.on_done) m.on_done();
}

}  // namespace ks::gpu
