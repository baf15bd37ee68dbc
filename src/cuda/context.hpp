#pragma once

#include <deque>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "cuda/api.hpp"
#include "cuda/id_table.hpp"
#include "gpu/device.hpp"

namespace ks::cuda {

/// Driver-level CUDA context: binds one container to one device and
/// implements the CudaApi surface directly against the simulated GPU.
///
/// Stream ordering is enforced here (the device itself executes whatever it
/// is given): each stream is a FIFO — at most one kernel of a stream is in
/// flight on the device; the next is submitted when the previous retires.
/// A LaunchKernelStream is one counted queue entry whose units go to the
/// device one at a time the same way. Kernels of different streams (or
/// different contexts) overlap on the device, which is what makes the
/// no-compute-isolation baselines measurably interfere.
///
/// Stream and event ids are assigned in increasing order and never reused:
/// a destroyed id answers kErrorInvalidHandle for the rest of the
/// context's life. Each id ever created keeps one table slot (a pointer)
/// until the context dies.
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

  CudaResult StreamCreate(StreamId* out) override;
  CudaResult StreamDestroy(StreamId stream) override;

  CudaResult LaunchKernelStream(const gpu::KernelDesc& desc, int count,
                                StreamId stream, HostFn on_unit) override;
  std::size_t CancelPending(StreamId stream) override;
  Time Now() const override;
  CudaResult Synchronize(HostFn fn) override;

  CudaResult EventCreate(EventId* out) override;
  CudaResult EventRecord(EventId event, StreamId stream) override;
  CudaResult EventQuery(EventId event) override;
  CudaResult EventSynchronize(EventId event, HostFn fn) override;
  CudaResult EventElapsedTime(Duration* out, EventId start,
                              EventId end) override;
  CudaResult EventDestroy(EventId event) override;

  std::uint64_t AllocatedBytes() const override { return allocated_bytes_; }
  std::size_t PendingKernels() const override { return pending_kernels_; }

 private:
  /// A stream queue entry: the `count` not-yet-submitted units of a
  /// launch and their per-unit callback, or an event marker that completes
  /// the event once every earlier kernel on the stream has retired.
  struct Entry {
    bool is_event = false;
    int count = 1;
    gpu::KernelDesc desc;
    HostFn fn;
    EventId event = 0;
  };
  struct Stream {
    std::deque<Entry> queue;
    /// The kernel on the device and its callback (taken from its entry).
    bool in_flight = false;
    HostFn fn;
  };
  struct EventState {
    bool recorded = false;
    bool complete = false;
    Time completed_at{0};
    std::vector<HostFn> waiters;
  };

  void SubmitNext(StreamId stream_id);
  void OnKernelRetired(StreamId stream_id);
  void CompleteEvent(EventId event);
  void MaybeFireSync();

  gpu::GpuDevice* device_;
  ContainerId owner_;

  std::uint64_t allocated_bytes_ = 0;
  std::unordered_set<gpu::DevicePtr> owned_ptrs_;

  /// Indexed by id. Stream 0 is the default stream; event ids start at 1.
  IdTable<Stream> streams_;
  IdTable<EventState> events_{1};

  std::size_t pending_kernels_ = 0;
  std::vector<HostFn> sync_waiters_;
};

}  // namespace ks::cuda
