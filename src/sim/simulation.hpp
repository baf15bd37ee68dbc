#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "sim/event_callback.hpp"

namespace ks::sim {

/// Opaque handle to a scheduled event. Encodes (sequence, slot) so Cancel()
/// resolves the event in O(1) with a single comparison — no hash lookup.
/// Callers treat it as an opaque token exactly as before.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Deterministic discrete-event simulation core.
///
/// Every cluster-scale experiment in this reproduction runs on one of these:
/// components (kubelet sync loops, the token backend's quota timers, client
/// request processes) schedule callbacks at absolute or relative virtual
/// times, and the engine executes them in (time, insertion-order) order.
/// Ties are broken by insertion order, which makes runs reproducible given
/// a fixed seed — there is no dependence on heap iteration order or real
/// wall-clock.
///
/// Internals (see docs/performance.md for the design rationale):
///  - callbacks live in a slot arena as EventCallback (small-buffer
///    optimized; captures <= 56 bytes never allocate) and are *moved*, not
///    copied, on fire; free slots recycle through a free list, so
///    steady-state timer churn performs zero allocations;
///  - the ready queue is a 4-ary min-heap of 16-byte (time, key) entries
///    laid out so every 4-child sibling group shares one cache line — a
///    sift touches one line per level instead of up to four;
///  - delete-min uses the bottom-up ("Wegener") variant: the hole descends
///    the min-child path comparison-free against the displaced leaf, which
///    then sifts up a short distance — roughly half the comparisons of the
///    textbook algorithm;
///  - every slot is generation-stamped: Cancel() invalidates the slot in
///    O(1) and the queue entry dies lazily when it surfaces (or at the next
///    purge, which keeps dead entries bounded by the live count). There is
///    no tombstone set, and pending() is an exact live counter by
///    construction, so cancelling a fired id is a correct no-op and
///    pending() can never underflow;
///  - ScheduleAfterFixed() bypasses the heap: events scheduled with one
///    fixed delay go on a FIFO lane kept for that delay. Now() never
///    decreases and sequence numbers only grow, so appending
///    (Now() + delay, key) keeps every lane sorted by the heap's own
///    order. Each step fires the earliest of the heap root and the lane
///    heads under the same Earlier() comparison, so the firing order is
///    exactly the one a heap-only engine would produce; a lane costs one
///    append and one pop instead of a sift up and a delete-min.
///
/// Capacity limits of the packed event key (documented, checked at
/// runtime): at most 2^24 - 1 events pending at once, at most 2^40 - 1
/// events scheduled over a Simulation's lifetime. Hitting either limit is
/// not a crash: every Schedule call returns kInvalidEvent, the engine
/// latches into an exhausted state (CapacityStatus() reports which limit
/// tripped and the counts), and a single diagnostic goes to stderr.
class Simulation {
 public:
  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time Now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (>= Now()). Returns an id
  /// usable with Cancel().
  EventId ScheduleAt(Time t, EventCallback fn);

  /// Schedules `fn` after `delay` from now.
  EventId ScheduleAfter(Duration delay, EventCallback fn);

  /// Fast paths: construct the callable directly in its event slot instead
  /// of building an EventCallback and relocating it in.
  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                    std::is_invocable_r_v<void, std::decay_t<F>&>,
                int> = 0>
  EventId ScheduleAt(Time t, F&& fn) {
    if (t < now_) t = now_;
    const EventId key = Emplace(std::forward<F>(fn));
    if (key != kInvalidEvent) PushHeap(HeapEntry{t, key});
    return key;
  }

  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                    std::is_invocable_r_v<void, std::decay_t<F>&>,
                int> = 0>
  EventId ScheduleAfter(Duration delay, F&& fn) {
    if (delay.count() < 0) delay = Duration{0};
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` from now on the FIFO lane kept for that
  /// delay (a negative delay counts as zero). Same ids, Cancel(), pending()
  /// and capacity limits as ScheduleAfter(), and the same firing order; it
  /// is cheaper for a deadline armed again and again with one constant
  /// delay (a hand-off latency, a quota). An engine keeps at most kMaxLanes
  /// lanes; further distinct delays go on the heap.
  template <typename F,
            std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>,
                             int> = 0>
  EventId ScheduleAfterFixed(Duration delay, F&& fn) {
    if (delay.count() < 0) delay = Duration{0};
    Lane* lane = LaneFor(delay);
    if (lane == nullptr) return ScheduleAt(now_ + delay, std::forward<F>(fn));
    const EventId key = Emplace(std::forward<F>(fn));
    if (key != kInvalidEvent) {
      lane->Push(HeapEntry{now_ + delay, key});
      ++lane_entries_;
    }
    return key;
  }

  /// Cancels a pending event. Safe to call with an id that already fired or
  /// was already cancelled (no-op). Returns true if the event was pending.
  bool Cancel(EventId id);

  /// Executes the next pending event, if any. Returns false when the queue
  /// is empty.
  bool Step();

  /// Runs until the queue drains or `max_events` fire (guard against
  /// accidental infinite self-rescheduling in tests).
  void Run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= t, then advances the clock to exactly t even
  /// if no event lands on it.
  void RunUntil(Time t);

  /// Fire time of the earliest pending event, or nullopt when the queue is
  /// empty. Drops dead heap roots and lane heads first, so the answer is
  /// exact.
  /// A caller that drives the engine one Step() at a time uses it to stop
  /// at a time bound without running past it.
  std::optional<Time> NextEventTime();

  /// Exact count of live (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return live_; }
  std::uint64_t executed() const { return executed_; }

  /// Events ever scheduled over this Simulation's lifetime (the id-space
  /// consumption measured against the 2^40 - 1 lifetime cap).
  std::uint64_t lifetime_events() const { return next_seq_ - 1; }

  /// True once either capacity limit has tripped. From that point every
  /// Schedule call returns kInvalidEvent; already-queued events still run.
  bool exhausted() const { return exhausted_; }

  /// Ok while healthy; once exhausted, a kResourceExhausted status naming
  /// the limit that tripped and the current counts.
  Status CapacityStatus() const;

  /// Test hook: pretends `count` events were already scheduled over this
  /// Simulation's lifetime, so a unit test can exercise the exhaustion
  /// guard without scheduling ~10^12 real events. Only ratchets forward.
  void InjectLifetimeEventCountForTest(std::uint64_t count) {
    if (count + 1 > next_seq_) next_seq_ = count + 1;
  }

 private:
  /// Heap entry: fire time plus the packed event key. The key doubles as
  /// the public EventId and as the tie-breaker — its high 40 bits are the
  /// global insertion sequence, so comparing keys compares insertion order.
  struct HeapEntry {
    Time at;
    std::uint64_t key;
  };

  struct Slot {
    EventCallback fn;
    std::uint64_t key = 0;  // key of the current occupant; 0 = vacant
  };

  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (1ull << 40) - 1;
  /// Arena-reset threshold: once the queue drains, arenas larger than this
  /// are released so a burst does not pin its peak footprint forever.
  static constexpr std::size_t kCompactThreshold = 4096;
  /// A stale-entry purge triggers when dead heap entries outnumber live
  /// ones by this margin.
  static constexpr std::uint32_t kPurgeSlack = 64;

  /// Most fixed-delay lanes an engine keeps. Every step compares each
  /// lane's head, so the lanes are for a few hot delays, not for all.
  static constexpr std::size_t kMaxLanes = 8;

  /// One fixed-delay lane: a ring of entries in (time, key) order.
  struct Lane {
    Duration delay{0};
    std::vector<HeapEntry> ring;  // capacity is a power of two
    std::uint32_t head = 0;
    std::uint32_t size = 0;

    const HeapEntry& Front() const { return ring[head]; }
    void Pop() {
      head = (head + 1) & static_cast<std::uint32_t>(ring.size() - 1);
      --size;
    }
    void Push(HeapEntry e) {
      if (size == ring.size()) Grow();
      ring[(head + size) & (ring.size() - 1)] = e;
      ++size;
    }
    void Grow();
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;  // FIFO among same-time events
  }

  /// Builds `fn` in a fresh slot and mints its key; kInvalidEvent (and no
  /// slot) once a capacity limit is spent. The caller queues the entry.
  template <typename F>
  EventId Emplace(F&& fn) {
    if (!HasCapacity()) return kInvalidEvent;
    const std::uint32_t slot = AcquireSlot();
    Slot& s = slots_[slot];
    if constexpr (std::is_same_v<std::decay_t<F>, EventCallback>) {
      s.fn = std::forward<F>(fn);
    } else {
      s.fn.emplace(std::forward<F>(fn));
    }
    const std::uint64_t key = (next_seq_++ << kSlotBits) | slot;
    s.key = key;
    ++live_;
    return key;
  }

  bool Live(const HeapEntry& e) const {
    return slots_[e.key & kSlotMask].key == e.key;
  }

  /// The lane for `delay`, created on first use; nullptr once kMaxLanes
  /// other delays have lanes.
  Lane* LaneFor(Duration delay);
  /// The earliest live entry, dropping dead heap roots and lane heads on
  /// the way; `*lane` is the lane holding it, or nullptr for the heap.
  /// nullptr when nothing is pending.
  const HeapEntry* PeekLive(Lane** lane);
  /// Fires the entry PeekLive() returned and removes it from its source.
  void Fire(HeapEntry top, Lane* lane);

  void PushHeap(HeapEntry e);
  void PopRoot();
  void SiftDown(std::uint32_t pos);
  void PurgeStale();
  void GrowHeap();
  void FreeHeap();

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot);
  void CompactIfDrained();
  /// Capacity gate run before every slot acquisition. Returns false (and
  /// latches the exhausted state, emitting one stderr diagnostic) when the
  /// lifetime id space or the pending-slot arena is spent.
  bool HasCapacity();
  void MarkExhausted(const char* limit);

  Time now_{0};
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint32_t live_ = 0;
  bool exhausted_ = false;

  /// 4-ary heap in a 64-byte-aligned buffer offset so element 1 starts a
  /// cache line: sibling groups [4i+1 .. 4i+4] each occupy exactly one
  /// line. raw_heap_ owns the allocation; heap_ = raw + 3.
  HeapEntry* heap_ = nullptr;
  void* raw_heap_ = nullptr;
  std::uint32_t heap_size_ = 0;
  std::uint32_t heap_cap_ = 0;

  std::vector<Lane> lanes_;
  /// Entries on all lanes, live and dead: heap_size_ + lane_entries_ -
  /// live_ is the dead-entry count the purge trigger reads.
  std::uint32_t lane_entries_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ks::sim
