#include "cuda/context.hpp"

#include <cassert>
#include <utility>

namespace ks::cuda {

CudaContext::CudaContext(gpu::GpuDevice* device, ContainerId owner)
    : device_(device), owner_(std::move(owner)) {
  assert(device_ != nullptr);
  streams_.try_emplace(kDefaultStream);
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

CudaResult CudaContext::StreamCreate(StreamId* out) {
  if (out == nullptr) return CudaResult::kErrorInvalidValue;
  const StreamId id = next_stream_++;
  streams_.try_emplace(id);
  *out = id;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::StreamDestroy(StreamId stream) {
  if (stream == kDefaultStream) return CudaResult::kErrorInvalidValue;
  auto it = streams_.find(stream);
  if (it == streams_.end()) return CudaResult::kErrorInvalidHandle;
  if (it->second.in_flight || !it->second.queue.empty()) {
    return CudaResult::kErrorNotReady;
  }
  streams_.erase(it);
  return CudaResult::kSuccess;
}

CudaResult CudaContext::LaunchKernelStream(const gpu::KernelDesc& desc,
                                           int count, StreamId stream,
                                           HostFn on_unit) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return CudaResult::kErrorInvalidHandle;
  if (desc.nominal_duration.count() <= 0 || count <= 0) {
    return CudaResult::kErrorInvalidValue;
  }
  pending_kernels_ += static_cast<std::size_t>(count);
  Entry entry;
  entry.count = count;
  entry.desc = desc;
  entry.fn = std::move(on_unit);
  it->second.queue.push_back(std::move(entry));
  if (!it->second.in_flight) SubmitNext(stream);
  return CudaResult::kSuccess;
}

void CudaContext::SubmitNext(StreamId stream_id) {
  // Loops so a run of device-rejected (token-fenced) submits drains the
  // queue iteratively instead of recursing per dropped entry.
  for (;;) {
    const auto stream_it = streams_.find(stream_id);
    if (stream_it == streams_.end()) return;  // destroyed by a sync waiter
    Stream& stream = stream_it->second;
    // Event markers at the head of the queue complete immediately — every
    // earlier kernel on this FIFO stream has retired.
    while (!stream.in_flight && !stream.queue.empty() &&
           stream.queue.front().is_event) {
      const EventId event = stream.queue.front().event;
      stream.queue.pop_front();
      CompleteEvent(event);
    }
    if (stream.in_flight || stream.queue.empty()) return;
    Entry& head = stream.queue.front();
    const gpu::KernelId id = device_->Submit(
        owner_, head.desc, [this, stream_id] { OnKernelRetired(stream_id); });
    if (id == 0) {
      // The device fenced the submit (expired/revoked token epoch): the
      // entry's kernels are dropped without callbacks, and the stream keeps
      // draining so queued work behind the fence cannot wedge it.
      pending_kernels_ -= static_cast<std::size_t>(head.count);
      stream.queue.pop_front();
      MaybeFireSync();
      continue;
    }
    stream.in_flight = true;
    if (--head.count == 0) {
      stream.fn = std::move(head.fn);
      stream.queue.pop_front();
    } else {
      stream.fn = head.fn;  // more units of this entry follow
    }
    return;
  }
}

void CudaContext::OnKernelRetired(StreamId stream_id) {
  HostFn fn;
  auto it = streams_.find(stream_id);
  if (it != streams_.end()) {
    it->second.in_flight = false;
    fn = std::move(it->second.fn);
  }
  --pending_kernels_;
  if (fn) fn();
  SubmitNext(stream_id);
  MaybeFireSync();
}

std::size_t CudaContext::CancelPending(StreamId stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return 0;
  Stream& s = it->second;
  std::size_t cancelled = 0;
  for (auto qit = s.queue.begin(); qit != s.queue.end();) {
    if (qit->is_event) {
      ++qit;
      continue;
    }
    const auto units = static_cast<std::size_t>(qit->count);
    pending_kernels_ -= units;
    cancelled += units;
    qit = s.queue.erase(qit);
  }
  // Event markers left at the head complete now that nothing precedes them.
  if (!s.in_flight) SubmitNext(stream);
  MaybeFireSync();
  return cancelled;
}

Time CudaContext::Now() const { return device_->sim()->Now(); }

CudaResult CudaContext::Synchronize(HostFn fn) {
  if (!fn) return CudaResult::kErrorInvalidValue;
  if (pending_kernels_ == 0) {
    fn();
    return CudaResult::kSuccess;
  }
  sync_waiters_.push_back(std::move(fn));
  return CudaResult::kSuccess;
}

void CudaContext::MaybeFireSync() {
  if (pending_kernels_ != 0 || sync_waiters_.empty()) return;
  auto waiters = std::move(sync_waiters_);
  sync_waiters_.clear();
  for (auto& fn : waiters) fn();
}

CudaResult CudaContext::EventCreate(EventId* out) {
  if (out == nullptr) return CudaResult::kErrorInvalidValue;
  const EventId id = next_event_++;
  events_.try_emplace(id);
  *out = id;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventRecord(EventId event, StreamId stream) {
  auto eit = events_.find(event);
  if (eit == events_.end()) return CudaResult::kErrorInvalidHandle;
  auto sit = streams_.find(stream);
  if (sit == streams_.end()) return CudaResult::kErrorInvalidHandle;
  // Re-recording resets the event.
  eit->second.recorded = true;
  eit->second.complete = false;
  if (!sit->second.in_flight && sit->second.queue.empty()) {
    CompleteEvent(event);
    return CudaResult::kSuccess;
  }
  Entry marker;
  marker.is_event = true;
  marker.event = event;
  sit->second.queue.push_back(std::move(marker));
  return CudaResult::kSuccess;
}

void CudaContext::CompleteEvent(EventId event) {
  auto it = events_.find(event);
  if (it == events_.end()) return;  // destroyed while in a queue
  it->second.complete = true;
  it->second.completed_at = device_->sim()->Now();
  auto waiters = std::move(it->second.waiters);
  it->second.waiters.clear();
  for (auto& fn : waiters) {
    if (fn) fn();
  }
}

CudaResult CudaContext::EventQuery(EventId event) {
  auto it = events_.find(event);
  if (it == events_.end()) return CudaResult::kErrorInvalidHandle;
  if (!it->second.recorded) return CudaResult::kErrorInvalidValue;
  return it->second.complete ? CudaResult::kSuccess
                             : CudaResult::kErrorNotReady;
}

CudaResult CudaContext::EventSynchronize(EventId event, HostFn fn) {
  if (!fn) return CudaResult::kErrorInvalidValue;
  auto it = events_.find(event);
  if (it == events_.end()) return CudaResult::kErrorInvalidHandle;
  if (!it->second.recorded) return CudaResult::kErrorInvalidValue;
  if (it->second.complete) {
    fn();
  } else {
    it->second.waiters.push_back(std::move(fn));
  }
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventElapsedTime(Duration* out, EventId start,
                                         EventId end) {
  if (out == nullptr) return CudaResult::kErrorInvalidValue;
  auto sit = events_.find(start);
  auto eit = events_.find(end);
  if (sit == events_.end() || eit == events_.end()) {
    return CudaResult::kErrorInvalidHandle;
  }
  if (!sit->second.complete || !eit->second.complete) {
    return CudaResult::kErrorNotReady;
  }
  *out = eit->second.completed_at - sit->second.completed_at;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventDestroy(EventId event) {
  if (events_.erase(event) == 0) return CudaResult::kErrorInvalidHandle;
  return CudaResult::kSuccess;
}

}  // namespace ks::cuda
