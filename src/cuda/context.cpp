#include "cuda/context.hpp"

#include <cassert>
#include <utility>

namespace ks::cuda {

CudaContext::CudaContext(gpu::GpuDevice* device, ContainerId owner)
    : device_(device), owner_(std::move(owner)) {
  assert(device_ != nullptr);
  streams_.Emplace(kDefaultStream);
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
  const StreamId id = streams_.id_bound();
  streams_.Emplace(id);
  *out = id;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::StreamDestroy(StreamId stream) {
  if (stream == kDefaultStream) return CudaResult::kErrorInvalidValue;
  const Stream* s = streams_.Find(stream);
  if (s == nullptr) return CudaResult::kErrorInvalidHandle;
  if (s->in_flight || !s->queue.empty()) return CudaResult::kErrorNotReady;
  streams_.Erase(stream);
  return CudaResult::kSuccess;
}

CudaResult CudaContext::LaunchKernelStream(const gpu::KernelDesc& desc,
                                           int count, StreamId stream,
                                           HostFn on_unit) {
  Stream* s = streams_.Find(stream);
  if (s == nullptr) return CudaResult::kErrorInvalidHandle;
  if (desc.nominal_duration.count() <= 0 || count <= 0) {
    return CudaResult::kErrorInvalidValue;
  }
  pending_kernels_ += static_cast<std::size_t>(count);
  Entry entry;
  entry.count = count;
  entry.desc = desc;
  entry.fn = std::move(on_unit);
  s->queue.push_back(std::move(entry));
  if (!s->in_flight) SubmitNext(stream);
  return CudaResult::kSuccess;
}

void CudaContext::SubmitNext(StreamId stream_id) {
  // Loops so a run of device-rejected (token-fenced) submits drains the
  // queue iteratively instead of recursing per dropped entry.
  for (;;) {
    Stream* found = streams_.Find(stream_id);
    if (found == nullptr) return;  // destroyed by a sync waiter
    Stream& stream = *found;
    if (stream.in_flight || stream.queue.empty()) return;
    if (stream.queue.front().is_event) {
      // An event marker at the head completes immediately — every earlier
      // kernel on this FIFO stream has retired. Its waiters may destroy
      // the stream, so look it up again.
      const EventId event = stream.queue.front().event;
      stream.queue.pop_front();
      CompleteEvent(event);
      continue;
    }
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
  if (Stream* s = streams_.Find(stream_id)) {
    s->in_flight = false;
    fn = std::move(s->fn);
  }
  --pending_kernels_;
  if (fn) fn();
  SubmitNext(stream_id);
  MaybeFireSync();
}

std::size_t CudaContext::CancelPending(StreamId stream) {
  Stream* found = streams_.Find(stream);
  if (found == nullptr) return 0;
  Stream& s = *found;
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
  const EventId id = events_.id_bound();
  events_.Emplace(id);
  *out = id;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventRecord(EventId event, StreamId stream) {
  EventState* e = events_.Find(event);
  if (e == nullptr) return CudaResult::kErrorInvalidHandle;
  Stream* s = streams_.Find(stream);
  if (s == nullptr) return CudaResult::kErrorInvalidHandle;
  // Re-recording resets the event.
  e->recorded = true;
  e->complete = false;
  if (!s->in_flight && s->queue.empty()) {
    CompleteEvent(event);
    return CudaResult::kSuccess;
  }
  Entry marker;
  marker.is_event = true;
  marker.event = event;
  s->queue.push_back(std::move(marker));
  return CudaResult::kSuccess;
}

void CudaContext::CompleteEvent(EventId event) {
  EventState* e = events_.Find(event);
  if (e == nullptr) return;  // destroyed while in a queue
  e->complete = true;
  e->completed_at = device_->sim()->Now();
  auto waiters = std::move(e->waiters);
  e->waiters.clear();
  for (auto& fn : waiters) {
    if (fn) fn();
  }
}

CudaResult CudaContext::EventQuery(EventId event) {
  const EventState* e = events_.Find(event);
  if (e == nullptr) return CudaResult::kErrorInvalidHandle;
  if (!e->recorded) return CudaResult::kErrorInvalidValue;
  return e->complete ? CudaResult::kSuccess : CudaResult::kErrorNotReady;
}

CudaResult CudaContext::EventSynchronize(EventId event, HostFn fn) {
  if (!fn) return CudaResult::kErrorInvalidValue;
  EventState* e = events_.Find(event);
  if (e == nullptr) return CudaResult::kErrorInvalidHandle;
  if (!e->recorded) return CudaResult::kErrorInvalidValue;
  if (e->complete) {
    fn();
  } else {
    e->waiters.push_back(std::move(fn));
  }
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventElapsedTime(Duration* out, EventId start,
                                         EventId end) {
  if (out == nullptr) return CudaResult::kErrorInvalidValue;
  const EventState* s = events_.Find(start);
  const EventState* e = events_.Find(end);
  if (s == nullptr || e == nullptr) return CudaResult::kErrorInvalidHandle;
  if (!s->complete || !e->complete) return CudaResult::kErrorNotReady;
  *out = e->completed_at - s->completed_at;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventDestroy(EventId event) {
  if (!events_.Erase(event)) return CudaResult::kErrorInvalidHandle;
  return CudaResult::kSuccess;
}

}  // namespace ks::cuda
