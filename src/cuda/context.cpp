#include "cuda/context.hpp"

#include <cassert>
#include <utility>

namespace ks::cuda {

CudaContext::CudaContext(gpu::GpuDevice* device, ContainerId owner)
    : device_(device), owner_(std::move(owner)) {
  assert(device_ != nullptr);
}

CudaContext::~CudaContext() {
  // Context destruction releases every allocation this context owns, as
  // cuCtxDestroy does, and orphans in-flight kernels so their completion
  // events cannot call back into this (freed) context.
  device_->DetachOwner(owner_);
  device_->FreeAll(owner_);
}

CudaResult CudaContext::MemAlloc(gpu::DevicePtr* out, std::uint64_t bytes) {
  if (out == nullptr || bytes == 0) return CudaResult::kErrorInvalidValue;
  auto result = device_->Allocate(owner_, bytes);
  if (!result.ok()) return CudaResult::kErrorOutOfMemory;
  *out = *result;
  owned_ptrs_.insert(*result);
  allocated_bytes_ += bytes;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::MemFree(gpu::DevicePtr ptr) {
  auto it = owned_ptrs_.find(ptr);
  if (it == owned_ptrs_.end()) return CudaResult::kErrorInvalidValue;
  const std::uint64_t before = device_->MemoryUsedBy(owner_);
  if (!device_->Free(ptr).ok()) return CudaResult::kErrorInvalidValue;
  allocated_bytes_ -= before - device_->MemoryUsedBy(owner_);
  owned_ptrs_.erase(it);
  return CudaResult::kSuccess;
}

CudaResult CudaContext::ArrayCreate(gpu::DevicePtr* out, std::uint64_t width,
                                    std::uint64_t height,
                                    std::uint64_t element_bytes) {
  if (width == 0 || height == 0 || element_bytes == 0) {
    return CudaResult::kErrorInvalidValue;
  }
  return MemAlloc(out, width * height * element_bytes);
}

CudaResult CudaContext::MemPrefetch(std::uint64_t bytes, Duration duration,
                                    HostFn on_complete) {
  device_->ChargeMigration(owner_, bytes, duration, std::move(on_complete));
  return CudaResult::kSuccess;
}

CudaResult CudaContext::LaunchKernelStream(const gpu::KernelDesc& desc,
                                           int count, HostFn on_unit) {
  if (desc.nominal_duration.count() <= 0 || count <= 0) {
    return CudaResult::kErrorInvalidValue;
  }
  pending_kernels_ += static_cast<std::size_t>(count);
  // Only the units that must wait for the unit in flight are queued.
  if (!in_flight_ && queue_.empty()) {
    count = SubmitFirst(desc, count, on_unit);
    if (count == 0) return CudaResult::kSuccess;
  }
  queue_.push_back(Entry{count, desc, std::move(on_unit)});
  // Launched from a retiring unit's callback: the queue's head goes first.
  if (!in_flight_) SubmitNext();
  return CudaResult::kSuccess;
}

int CudaContext::SubmitFirst(const gpu::KernelDesc& desc, int count,
                             HostFn& fn) {
  if (device_->Submit(owner_, desc, [this] { OnKernelRetired(); }) == 0) {
    pending_kernels_ -= static_cast<std::size_t>(count);
    return 0;
  }
  in_flight_ = true;
  in_flight_fn_ = count == 1 ? std::move(fn) : fn;  // a copy if more follow
  return count - 1;
}

void CudaContext::SubmitNext() {
  // Loops so a run of device-rejected (token-fenced) submits drains the
  // queue iteratively instead of recursing per dropped entry.
  while (!in_flight_ && !queue_.empty()) {
    Entry& head = queue_.front();
    head.count = SubmitFirst(head.desc, head.count, head.fn);
    if (head.count == 0) queue_.pop_front();
  }
}

void CudaContext::OnKernelRetired() {
  in_flight_ = false;
  HostFn fn = std::move(in_flight_fn_);
  --pending_kernels_;
  if (fn) fn();
  SubmitNext();
}

std::size_t CudaContext::CancelPending() {
  std::size_t cancelled = 0;
  for (const Entry& e : queue_) cancelled += static_cast<std::size_t>(e.count);
  queue_.clear();
  pending_kernels_ -= cancelled;
  return cancelled;
}

Time CudaContext::Now() const { return device_->sim()->Now(); }

}  // namespace ks::cuda
