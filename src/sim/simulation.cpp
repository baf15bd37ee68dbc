#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>

namespace ks::sim {

Simulation::~Simulation() { FreeHeap(); }

EventId Simulation::ScheduleAt(Time t, EventCallback fn) {
  assert(fn && "cannot schedule an empty callback");
  if (t < now_) t = now_;  // clamp: scheduling in the past fires "now"
  const EventId key = Emplace(std::move(fn));
  if (key != kInvalidEvent) PushHeap(HeapEntry{t, key});
  return key;
}

EventId Simulation::ScheduleAfter(Duration delay, EventCallback fn) {
  if (delay.count() < 0) delay = Duration{0};
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulation::Cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (id == kInvalidEvent || slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // A fired or previously-cancelled event has released its slot: the slot
  // is either vacant (key 0) or re-issued under a newer sequence. Both
  // compare unequal, making stale cancels correct no-ops.
  if (s.key != id) return false;
  ReleaseSlot(slot);
  --live_;
  // The entry dies lazily when it surfaces; purge when dead entries
  // outnumber live ones so cancel/reschedule churn cannot grow the queues
  // unboundedly. Every live event has exactly one entry, on the heap or on
  // a lane, so the sum never drops below live_.
  if (heap_size_ + lane_entries_ - live_ > live_ + kPurgeSlack) PurgeStale();
  return true;
}

// PeekLive() and Fire() run once per event; defined ahead of their callers
// so the compiler can fold them into the drain loops.
inline const Simulation::HeapEntry* Simulation::PeekLive(Lane** lane) {
  // Only the minimum needs a liveness check: when it is live, it precedes
  // every other entry, dead or alive.
  for (;;) {
    const HeapEntry* best = heap_size_ > 0 ? heap_ : nullptr;
    Lane* from = nullptr;
    for (Lane& l : lanes_) {
      if (l.size != 0 && (best == nullptr || Earlier(l.Front(), *best))) {
        best = &l.Front();
        from = &l;
      }
    }
    if (best == nullptr || Live(*best)) {
      *lane = from;
      return best;
    }
    if (from != nullptr) {
      from->Pop();
      --lane_entries_;
    } else {
      PopRoot();
    }
  }
}

inline void Simulation::Fire(HeapEntry top, Lane* lane) {
  assert(top.at >= now_);
  Slot& s = slots_[top.key & kSlotMask];
  EventCallback fn = std::move(s.fn);
  // The slot is released *before* the callback runs, so a callback that
  // reschedules itself (the usual timer pattern) reuses its own slot.
  ReleaseSlot(top.key & kSlotMask);
  --live_;
  if (lane != nullptr) {
    lane->Pop();
    --lane_entries_;
  } else {
    PopRoot();
  }
  now_ = top.at;
  ++executed_;
  fn();
}

std::optional<Time> Simulation::NextEventTime() {
  Lane* lane = nullptr;
  const HeapEntry* next = PeekLive(&lane);
  if (next == nullptr) return std::nullopt;
  return next->at;
}

bool Simulation::Step() {
  Lane* lane = nullptr;
  const HeapEntry* next = PeekLive(&lane);
  if (next == nullptr) {
    CompactIfDrained();
    return false;
  }
  Fire(*next, lane);
  return true;
}

void Simulation::Run(std::uint64_t max_events) {
  while (max_events-- > 0 && Step()) {
  }
}

void Simulation::RunUntil(Time t) {
  // Fire() is the only place live events are popped; one PeekLive() per
  // step picks the source and bounds the slice.
  for (;;) {
    Lane* lane = nullptr;
    const HeapEntry* next = PeekLive(&lane);
    if (next == nullptr || next->at > t) break;
    Fire(*next, lane);
  }
  if (now_ < t) now_ = t;
  CompactIfDrained();
}

Simulation::Lane* Simulation::LaneFor(Duration delay) {
  for (Lane& lane : lanes_) {
    if (lane.delay == delay) return &lane;
  }
  if (lanes_.size() == kMaxLanes) return nullptr;
  Lane& lane = lanes_.emplace_back();
  lane.delay = delay;
  return &lane;
}

void Simulation::Lane::Grow() {
  // Unrolls the ring into a buffer twice the size, oldest entry first.
  std::vector<HeapEntry> bigger(ring.empty() ? 16 : ring.size() * 2);
  for (std::uint32_t i = 0; i < size; ++i) {
    bigger[i] = ring[(head + i) & (ring.size() - 1)];
  }
  ring.swap(bigger);
  head = 0;
}

void Simulation::PushHeap(HeapEntry e) {
  if (heap_size_ == heap_cap_) GrowHeap();
  std::uint32_t pos = heap_size_++;
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void Simulation::PopRoot() {
  const std::uint32_t n = --heap_size_;
  if (n == 0) return;
  const HeapEntry last = heap_[n];
  // Bottom-up delete-min: walk the hole down the min-child path without
  // comparing against `last` (it came from the bottom and nearly always
  // belongs there), then sift it up the short remaining distance.
  std::uint32_t pos = 0;
  const bool prefetch = n > 4096;
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t end = std::min(first + 4, n);
    const std::uint32_t gc = 4 * first + 1;
    if (prefetch && gc < n) {
      __builtin_prefetch(heap_ + gc);
      __builtin_prefetch(heap_ + gc + 4);
      __builtin_prefetch(heap_ + gc + 8);
      __builtin_prefetch(heap_ + gc + 12);
    }
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (!Earlier(last, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = last;
}

void Simulation::SiftDown(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= heap_size_) break;
    std::uint32_t best = first;
    const std::uint32_t end = std::min(first + 4, heap_size_);
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], e)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = e;
}

void Simulation::PurgeStale() {
  // Compact live entries in place, then heapify. Deterministic: the
  // comparator is a strict total order (keys are unique), so any valid
  // heap arrangement drains in the same order.
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < heap_size_; ++i) {
    const HeapEntry e = heap_[i];
    if (Live(e)) heap_[kept++] = e;
  }
  heap_size_ = kept;
  if (kept > 1) {
    for (std::uint32_t i = (kept - 2) >> 2; ; --i) {
      SiftDown(i);
      if (i == 0) break;
    }
  }
  // Lanes keep their order: live entries slide toward the head.
  lane_entries_ = 0;
  for (Lane& lane : lanes_) {
    const auto mask = static_cast<std::uint32_t>(lane.ring.size() - 1);
    std::uint32_t live = 0;
    for (std::uint32_t i = 0; i < lane.size; ++i) {
      const HeapEntry e = lane.ring[(lane.head + i) & mask];
      if (Live(e)) lane.ring[(lane.head + live++) & mask] = e;
    }
    lane.size = live;
    lane_entries_ += live;
  }
}

void Simulation::GrowHeap() {
  const std::uint32_t cap = heap_cap_ == 0 ? 64 : heap_cap_ * 2;
  // +3 entries of slack so heap_[1] lands on a 64-byte boundary: sibling
  // group [4i+1 .. 4i+4] then always occupies exactly one cache line.
  void* raw = ::operator new((static_cast<std::size_t>(cap) + 3) *
                                 sizeof(HeapEntry),
                             std::align_val_t{64});
  auto* data = static_cast<HeapEntry*>(raw) + 3;
  if (heap_size_ > 0) {
    std::memcpy(static_cast<void*>(data), static_cast<void*>(heap_),
                heap_size_ * sizeof(HeapEntry));
  }
  FreeHeap();
  raw_heap_ = raw;
  heap_ = data;
  heap_cap_ = cap;
}

void Simulation::FreeHeap() {
  if (raw_heap_ != nullptr) {
    ::operator delete(raw_heap_, std::align_val_t{64});
    raw_heap_ = nullptr;
    heap_ = nullptr;
    heap_cap_ = 0;
  }
}

bool Simulation::HasCapacity() {
  if (exhausted_) return false;
  if (next_seq_ > kMaxSeq) {
    MarkExhausted("lifetime event-id space (2^40 - 1)");
    return false;
  }
  if (free_slots_.empty() && slots_.size() > kSlotMask) {
    MarkExhausted("pending-event slots (2^24 - 1)");
    return false;
  }
  return true;
}

void Simulation::MarkExhausted(const char* limit) {
  exhausted_ = true;
  std::fprintf(stderr,
               "ks::sim::Simulation capacity exhausted: %s spent "
               "(lifetime_events=%llu pending=%u); further Schedule calls "
               "return kInvalidEvent\n",
               limit, static_cast<unsigned long long>(lifetime_events()),
               live_);
}

Status Simulation::CapacityStatus() const {
  if (!exhausted_) return Status::Ok();
  const char* limit = next_seq_ > kMaxSeq
                          ? "lifetime event-id space (2^40 - 1)"
                          : "pending-event slots (2^24 - 1)";
  return ResourceExhaustedError(
      std::string("simulation capacity exhausted: ") + limit +
      " spent; lifetime_events=" + std::to_string(lifetime_events()) +
      " pending=" + std::to_string(live_));
}

std::uint32_t Simulation::AcquireSlot() {
  // Capacity is vetted by HasCapacity() before every acquisition, so both
  // branches below are infallible.
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  return slot;
}

void Simulation::ReleaseSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.key = 0;
  free_slots_.push_back(slot);
}

void Simulation::CompactIfDrained() {
  // Amortized compaction point: with nothing in flight both arenas can be
  // dropped wholesale. The sequence counter survives the reset, so ids
  // minted before compaction can never alias events scheduled after it.
  if (heap_size_ + lane_entries_ != 0 || slots_.size() < kCompactThreshold) {
    return;
  }
  slots_.clear();
  slots_.shrink_to_fit();
  free_slots_.clear();
  free_slots_.shrink_to_fit();
  FreeHeap();
  heap_size_ = 0;
  lanes_.clear();
  lanes_.shrink_to_fit();
}

}  // namespace ks::sim
