#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <set>

#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace ks::sim {

/// Repeating-callback multiplexer: the "single shared sampler tick" that
/// every periodic instrument (metrics samplers, the NVML poller, the SLO
/// autoscaler) rides. Deadlines are rounded up to the hub's `granularity`
/// grid, subscribers due at the same grid instant fire from one engine
/// event, and the hub keeps at most one event armed — at the earliest due
/// instant — no matter how many instruments it carries.
///
/// Each subscription fires at exact multiples of its period from the
/// subscription time (next_due advances by period, never from the fire
/// time) whenever its period sits on the hub's grid. Subscribers sharing an
/// instant fire in (due time, arming order) order.
class TickHub {
 public:
  using SubId = std::uint64_t;

  /// `granularity` is the grid deadlines round up to; zero (the default)
  /// keeps the hub exact at microsecond resolution.
  explicit TickHub(Simulation* sim, Duration granularity = Duration{0});
  ~TickHub();
  TickHub(const TickHub&) = delete;
  TickHub& operator=(const TickHub&) = delete;

  Simulation* sim() const { return sim_; }

  /// Registers a callback fired every `period`, first at now + period.
  SubId Subscribe(Duration period, EventCallback fn);

  /// Stops a subscription. Safe on ids already unsubscribed.
  bool Unsubscribe(SubId id);

  std::size_t subscribers() const { return subs_.size(); }
  /// Callback invocations across all subscriptions.
  std::uint64_t fires() const { return fires_; }
  /// Engine events consumed; fires()/ticks() is the sharing ratio.
  std::uint64_t ticks() const { return ticks_; }

 private:
  /// One armed deadline; ordered by fire instant, then requested due
  /// time, then arming order.
  struct Due {
    Time fire{0};
    Time due{0};
    std::uint64_t seq = 0;  // 0: not armed (the subscription is firing)
    SubId id = 0;
    auto operator<=>(const Due&) const = default;
  };

  struct Sub {
    Duration period{0};
    EventCallback fn;
    Time next_due{0};
    Due slot;  // its entry in `due_`
  };

  void Arm(SubId id);
  void OnTick();

  Simulation* sim_;
  std::int64_t grid_us_;
  std::map<SubId, Sub> subs_;
  std::set<Due> due_;
  EventId armed_event_ = kInvalidEvent;
  Time armed_at_{0};
  bool firing_ = false;
  SubId next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fires_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace ks::sim
