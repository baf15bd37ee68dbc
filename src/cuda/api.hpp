#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "gpu/device.hpp"

namespace ks::cuda {

/// CUDA-driver-style result codes. The subset the vGPU device library
/// interacts with: memory results (interception rejects over-quota
/// allocations with kErrorOutOfMemory, paper §4.5) and launch results.
enum class CudaResult {
  kSuccess,
  kErrorInvalidValue,
  kErrorOutOfMemory,
};

const char* CudaResultName(CudaResult r);

/// Fired when a launched kernel completes (cuLaunchHostFunc ordering).
using HostFn = std::function<void()>;

/// The CUDA driver calls the paper's device library intercepts (§4.5),
/// expressed as an abstract interface: memory calls and kernel launches.
///
/// This interface is the reproduction's LD_PRELOAD seam: the real KubeShare
/// device library interposes on libcuda.so symbols (cuMemAlloc,
/// cuArrayCreate, cuLaunchKernel, cuLaunchGrid, ...) via the dynamic
/// linker; here the vGPU frontend implements CudaApi as a decorator over
/// the driver-level implementation, which gives the identical
/// wrap-every-call structure without a real driver underneath.
///
/// A context's kernels form one FIFO: they reach the device in launch
/// order, one at a time. Kernels of different contexts overlap on the
/// device.
class CudaApi {
 public:
  virtual ~CudaApi() = default;

  // --- Memory (cuMemAlloc / cuMemFree / cuArrayCreate) -----------------
  virtual CudaResult MemAlloc(gpu::DevicePtr* out, std::uint64_t bytes) = 0;
  virtual CudaResult MemFree(gpu::DevicePtr ptr) = 0;
  /// cuArrayCreate-equivalent: a 2D array of `width` x `height` elements of
  /// `element_bytes` each. Allocates width*height*element_bytes.
  virtual CudaResult ArrayCreate(gpu::DevicePtr* out, std::uint64_t width,
                                 std::uint64_t height,
                                 std::uint64_t element_bytes) = 0;

  /// cuMemPrefetchAsync-equivalent: moves `bytes` over the host<->device
  /// link for `duration`, firing `on_complete` when the transfer lands.
  /// The over-commitment layer routes page migrations through this call so
  /// the driver context can charge them into the device's busy-time
  /// accounting.
  virtual CudaResult MemPrefetch(std::uint64_t bytes, Duration duration,
                                 HostFn on_complete) = 0;

  // --- Execution (cuLaunchKernel / cuLaunchGrid) -------------------------
  /// Enqueues `count` identical kernels back to back (a steady kernel
  /// stream: train steps) as one counted queue entry. `on_unit` fires once
  /// per unit, in FIFO order, as each unit retires.
  virtual CudaResult LaunchKernelStream(const gpu::KernelDesc& desc, int count,
                                        HostFn on_unit) = 0;

  /// Launches one kernel: a one-unit LaunchKernelStream, so a decorator
  /// intercepts both through LaunchKernelStream. `on_complete` fires when
  /// the kernel retires.
  CudaResult LaunchKernel(const gpu::KernelDesc& desc, HostFn on_complete) {
    return LaunchKernelStream(desc, 1, std::move(on_complete));
  }

  /// Cancels every not-yet-started kernel (the in-flight one always
  /// retires — kernels are non-preemptive). Returns the number cancelled.
  virtual std::size_t CancelPending() = 0;

  /// Current simulation time, so jobs schedule against the same clock the
  /// device retires against.
  virtual Time Now() const = 0;

  // --- Introspection ------------------------------------------------------
  virtual std::uint64_t AllocatedBytes() const = 0;
  virtual std::size_t PendingKernels() const = 0;
};

inline const char* CudaResultName(CudaResult r) {
  switch (r) {
    case CudaResult::kSuccess: return "CUDA_SUCCESS";
    case CudaResult::kErrorInvalidValue: return "CUDA_ERROR_INVALID_VALUE";
    case CudaResult::kErrorOutOfMemory: return "CUDA_ERROR_OUT_OF_MEMORY";
  }
  return "CUDA_ERROR_UNKNOWN";
}

}  // namespace ks::cuda
