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

  cuda::CudaResult StreamCreate(cuda::StreamId* out) override {
    return inner_->StreamCreate(out);
  }
  cuda::CudaResult StreamDestroy(cuda::StreamId stream) override {
    return inner_->StreamDestroy(stream);
  }
  cuda::CudaResult LaunchKernelStream(const gpu::KernelDesc& desc, int count,
                                      cuda::StreamId stream,
                                      cuda::HostFn on_unit) override {
    // No token, no throttling: the Aliyun baseline cannot bound compute.
    return inner_->LaunchKernelStream(desc, count, stream,
                                      std::move(on_unit));
  }
  std::size_t CancelPending(cuda::StreamId stream) override {
    return inner_->CancelPending(stream);
  }
  Time Now() const override { return inner_->Now(); }
  cuda::CudaResult Synchronize(cuda::HostFn fn) override {
    return inner_->Synchronize(std::move(fn));
  }
  cuda::CudaResult EventCreate(cuda::EventId* out) override {
    return inner_->EventCreate(out);
  }
  cuda::CudaResult EventRecord(cuda::EventId event,
                               cuda::StreamId stream) override {
    return inner_->EventRecord(event, stream);
  }
  cuda::CudaResult EventQuery(cuda::EventId event) override {
    return inner_->EventQuery(event);
  }
  cuda::CudaResult EventSynchronize(cuda::EventId event,
                                    cuda::HostFn fn) override {
    return inner_->EventSynchronize(event, std::move(fn));
  }
  cuda::CudaResult EventElapsedTime(Duration* out, cuda::EventId start,
                                    cuda::EventId end) override {
    return inner_->EventElapsedTime(out, start, end);
  }
  cuda::CudaResult EventDestroy(cuda::EventId event) override {
    return inner_->EventDestroy(event);
  }
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
