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
  kErrorInvalidContext,
  kErrorInvalidHandle,
  kErrorNotReady,
  kErrorNotPermitted,
};

const char* CudaResultName(CudaResult r);

using StreamId = std::uint64_t;
inline constexpr StreamId kDefaultStream = 0;

using EventId = std::uint64_t;

/// Fired when a launched kernel completes (cuLaunchHostFunc ordering).
using HostFn = std::function<void()>;

/// The CUDA driver API surface used by the workloads, expressed as an
/// abstract interface.
///
/// This interface is the reproduction's LD_PRELOAD seam: the real KubeShare
/// device library interposes on libcuda.so symbols (cuMemAlloc,
/// cuArrayCreate, cuLaunchKernel, cuLaunchGrid, ...) via the dynamic
/// linker; here the vGPU frontend implements CudaApi as a decorator over
/// the driver-level implementation, which gives the identical
/// wrap-every-call structure without a real driver underneath.
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
  /// accounting. The default implementation completes immediately — the
  /// call is a no-op for API implementations that do not model the link
  /// (and for every pre-existing decorator).
  virtual CudaResult MemPrefetch(std::uint64_t bytes, Duration duration,
                                 HostFn on_complete) {
    (void)bytes;
    (void)duration;
    if (on_complete) on_complete();
    return CudaResult::kSuccess;
  }

  // --- Streams ----------------------------------------------------------
  virtual CudaResult StreamCreate(StreamId* out) = 0;
  virtual CudaResult StreamDestroy(StreamId stream) = 0;

  // --- Execution (cuLaunchKernel / cuLaunchGrid) -------------------------
  /// Enqueues `count` identical kernels back to back on `stream` (a steady
  /// kernel stream: train steps) as one counted queue entry. Kernels on the
  /// same stream run in FIFO order; kernels on distinct streams may overlap
  /// on the device. `on_unit` fires once per unit, in FIFO order, as each
  /// unit retires.
  virtual CudaResult LaunchKernelStream(const gpu::KernelDesc& desc, int count,
                                        StreamId stream, HostFn on_unit) = 0;

  /// Launches one kernel on `stream`: a one-unit LaunchKernelStream, so a
  /// decorator intercepts both through LaunchKernelStream. `on_complete`
  /// fires when the kernel retires.
  CudaResult LaunchKernel(const gpu::KernelDesc& desc, StreamId stream,
                          HostFn on_complete) {
    return LaunchKernelStream(desc, 1, stream, std::move(on_complete));
  }

  /// Cancels every not-yet-started kernel queued on `stream` (the in-flight
  /// one always retires — kernels are non-preemptive). Returns the number
  /// cancelled.
  virtual std::size_t CancelPending(StreamId stream) = 0;

  /// Current simulation time, so jobs schedule against the same clock the
  /// device retires against.
  virtual Time Now() const = 0;

  /// Invokes `fn` once all work submitted so far has retired
  /// (cuCtxSynchronize expressed in callback form for the event-driven
  /// world).
  virtual CudaResult Synchronize(HostFn fn) = 0;

  // --- Events (cuEventCreate / cuEventRecord / cuEventQuery / ...) -------
  /// Creates a timing/ordering event.
  virtual CudaResult EventCreate(EventId* out) = 0;
  /// Records the event on `stream`: it completes when every kernel
  /// enqueued on that stream before the record has retired. Re-recording
  /// an event resets it.
  virtual CudaResult EventRecord(EventId event, StreamId stream) = 0;
  /// cuEventQuery: kSuccess when complete, kErrorNotReady while pending.
  virtual CudaResult EventQuery(EventId event) = 0;
  /// Invokes `fn` when the event completes (cuEventSynchronize in callback
  /// form). Fires immediately for an already-complete event.
  virtual CudaResult EventSynchronize(EventId event, HostFn fn) = 0;
  /// cuEventElapsedTime: completion-to-completion time of two complete
  /// events, in `out` (simulated time).
  virtual CudaResult EventElapsedTime(Duration* out, EventId start,
                                      EventId end) = 0;
  virtual CudaResult EventDestroy(EventId event) = 0;

  // --- Introspection ------------------------------------------------------
  virtual std::uint64_t AllocatedBytes() const = 0;
  virtual std::size_t PendingKernels() const = 0;
};

inline const char* CudaResultName(CudaResult r) {
  switch (r) {
    case CudaResult::kSuccess: return "CUDA_SUCCESS";
    case CudaResult::kErrorInvalidValue: return "CUDA_ERROR_INVALID_VALUE";
    case CudaResult::kErrorOutOfMemory: return "CUDA_ERROR_OUT_OF_MEMORY";
    case CudaResult::kErrorInvalidContext: return "CUDA_ERROR_INVALID_CONTEXT";
    case CudaResult::kErrorInvalidHandle: return "CUDA_ERROR_INVALID_HANDLE";
    case CudaResult::kErrorNotReady: return "CUDA_ERROR_NOT_READY";
    case CudaResult::kErrorNotPermitted: return "CUDA_ERROR_NOT_PERMITTED";
  }
  return "CUDA_ERROR_UNKNOWN";
}

}  // namespace ks::cuda
