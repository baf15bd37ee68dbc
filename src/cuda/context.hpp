#pragma once

#include <deque>
#include <unordered_set>

#include "common/ids.hpp"
#include "cuda/api.hpp"
#include "gpu/device.hpp"

namespace ks::cuda {

/// Driver-level CUDA context: binds one container to one device and
/// implements the CudaApi surface directly against the simulated GPU.
///
/// Kernel ordering is enforced here (the device itself executes whatever it
/// is given): the context's kernels form one FIFO, and at most one of them
/// is in flight on the device; the next is submitted when the previous
/// retires. A launch made with nothing queued or in flight goes to the
/// device at once; only units that must wait are queued, a stream's as one
/// counted entry. Kernels of different contexts overlap on the device,
/// which is what makes the no-compute-isolation baselines measurably
/// interfere.
class CudaContext final : public CudaApi {
 public:
  CudaContext(gpu::GpuDevice* device, ContainerId owner);
  ~CudaContext() override;

  CudaContext(const CudaContext&) = delete;
  CudaContext& operator=(const CudaContext&) = delete;

  const ContainerId& owner() const { return owner_; }
  gpu::GpuDevice* device() const { return device_; }

  CudaResult MemAlloc(gpu::DevicePtr* out, std::uint64_t bytes) override;
  CudaResult MemFree(gpu::DevicePtr ptr) override;
  CudaResult ArrayCreate(gpu::DevicePtr* out, std::uint64_t width,
                         std::uint64_t height,
                         std::uint64_t element_bytes) override;
  CudaResult MemPrefetch(std::uint64_t bytes, Duration duration,
                         HostFn on_complete) override;

  CudaResult LaunchKernelStream(const gpu::KernelDesc& desc, int count,
                                HostFn on_unit) override;
  std::size_t CancelPending() override;
  Time Now() const override;

  std::uint64_t AllocatedBytes() const override { return allocated_bytes_; }
  std::size_t PendingKernels() const override { return pending_kernels_; }

 private:
  /// A queue entry: the `count` not-yet-submitted units of a launch and
  /// their per-unit callback.
  struct Entry {
    int count = 1;
    gpu::KernelDesc desc;
    HostFn fn;
  };

  /// Submits the first of `count` units, taking its callback from `fn`.
  /// Returns the units left to submit: 0 also when the device fenced the
  /// submit, which drops the whole launch without callbacks.
  int SubmitFirst(const gpu::KernelDesc& desc, int count, HostFn& fn);
  void SubmitNext();
  void OnKernelRetired();

  gpu::GpuDevice* device_;
  ContainerId owner_;

  std::uint64_t allocated_bytes_ = 0;
  std::unordered_set<gpu::DevicePtr> owned_ptrs_;

  std::deque<Entry> queue_;
  /// The unit on the device and its callback (taken from its entry).
  bool in_flight_ = false;
  HostFn in_flight_fn_;
  std::size_t pending_kernels_ = 0;  // queued + in flight
};

}  // namespace ks::cuda
