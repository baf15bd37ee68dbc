#pragma once

#include <cstdint>
#include <unordered_map>

#include "cuda/api.hpp"

namespace ks::baselines {

/// Memory-only interposition layer — the isolation level of the Aliyun
/// gpushare baseline: allocations beyond the container's memory quota are
/// rejected, but kernel launches pass straight through (no compute
/// throttling and no token protocol). Contrast with vgpu::FrontendHook.
class MemoryOnlyHook final : public cuda::CudaApi {
 public:
  MemoryOnlyHook(cuda::CudaApi* inner, std::uint64_t quota_bytes)
      : inner_(inner), quota_bytes_(quota_bytes) {}

  cuda::CudaResult MemAlloc(gpu::DevicePtr* out, std::uint64_t bytes) override {
    if (out == nullptr || bytes == 0) {
      return cuda::CudaResult::kErrorInvalidValue;
    }
    if (allocated_ + bytes > quota_bytes_) {
      return cuda::CudaResult::kErrorOutOfMemory;
    }
    const cuda::CudaResult r = inner_->MemAlloc(out, bytes);
    if (r == cuda::CudaResult::kSuccess) {
      allocated_ += bytes;
      ptr_bytes_[*out] = bytes;
    }
    return r;
  }

  cuda::CudaResult MemFree(gpu::DevicePtr ptr) override {
    const cuda::CudaResult r = inner_->MemFree(ptr);
    if (r == cuda::CudaResult::kSuccess) {
      auto it = ptr_bytes_.find(ptr);
      if (it != ptr_bytes_.end()) {
        allocated_ -= it->second;
        ptr_bytes_.erase(it);
      }
    }
    return r;
  }

  cuda::CudaResult ArrayCreate(gpu::DevicePtr* out, std::uint64_t width,
                               std::uint64_t height,
                               std::uint64_t element_bytes) override {
    if (width == 0 || height == 0 || element_bytes == 0) {
      return cuda::CudaResult::kErrorInvalidValue;
    }
    return MemAlloc(out, width * height * element_bytes);
  }

  cuda::CudaResult MemPrefetch(std::uint64_t bytes, Duration duration,
                               cuda::HostFn on_complete) override {
    return inner_->MemPrefetch(bytes, duration, std::move(on_complete));
  }
  cuda::CudaResult LaunchKernelStream(const gpu::KernelDesc& desc, int count,
                                      cuda::HostFn on_unit) override {
    // No token, no throttling: the Aliyun baseline cannot bound compute.
    return inner_->LaunchKernelStream(desc, count, std::move(on_unit));
  }
  std::size_t CancelPending() override { return inner_->CancelPending(); }
  Time Now() const override { return inner_->Now(); }
  std::uint64_t AllocatedBytes() const override { return allocated_; }
  std::size_t PendingKernels() const override {
    return inner_->PendingKernels();
  }

  std::uint64_t quota_bytes() const { return quota_bytes_; }

 private:
  cuda::CudaApi* inner_;
  std::uint64_t quota_bytes_;
  std::uint64_t allocated_ = 0;
  std::unordered_map<gpu::DevicePtr, std::uint64_t> ptr_bytes_;
};

}  // namespace ks::baselines
