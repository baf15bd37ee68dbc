#include "sim/tick_hub.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace ks::sim {

TickHub::TickHub(Simulation* sim, Duration granularity)
    : sim_(sim), grid_us_(granularity.count() > 0 ? granularity.count() : 1) {
  assert(sim_ != nullptr);
}

TickHub::~TickHub() { sim_->Cancel(armed_event_); }

TickHub::SubId TickHub::Subscribe(Duration period, EventCallback fn) {
  assert(period.count() > 0);
  const SubId id = next_id_++;
  Sub& sub = subs_[id];
  sub.period = period;
  sub.fn = std::move(fn);
  sub.next_due = sim_->Now() + period;
  Arm(id);
  return id;
}

bool TickHub::Unsubscribe(SubId id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  due_.erase(it->second.slot);
  subs_.erase(it);
  // An idle hub owes the engine nothing. While firing, OnTick re-arms (or
  // not) once the batch is done.
  if (due_.empty() && !firing_) {
    sim_->Cancel(armed_event_);
    armed_event_ = kInvalidEvent;
  }
  return true;
}

void TickHub::Arm(SubId id) {
  Sub& sub = subs_.at(id);
  const Time due = std::max(sub.next_due, sim_->Now());
  const std::int64_t grid_steps = (due.count() + grid_us_ - 1) / grid_us_;
  const Time fire{grid_steps * grid_us_};
  sub.slot = Due{fire, due, next_seq_++, id};
  due_.insert(sub.slot);
  if (firing_) return;
  if (armed_event_ != kInvalidEvent) {
    if (fire >= armed_at_) return;
    sim_->Cancel(armed_event_);
  }
  armed_at_ = fire;
  armed_event_ = sim_->ScheduleAt(fire, [this] { OnTick(); });
}

void TickHub::OnTick() {
  armed_event_ = kInvalidEvent;
  ++ticks_;
  firing_ = true;
  // Fire everything due now in (due time, arming order). A callback may
  // subscribe, unsubscribe (itself or a sibling) or re-arm at this very
  // instant, so batches repeat until nothing due is left.
  std::vector<Due> batch;
  const Time now = sim_->Now();
  for (;;) {
    batch.clear();
    while (!due_.empty() && due_.begin()->fire <= now) {
      batch.push_back(*due_.begin());
      due_.erase(due_.begin());
    }
    if (batch.empty()) break;
    for (const Due& entry : batch) {
      const SubId id = entry.id;
      auto it = subs_.find(id);
      if (it == subs_.end() || it->second.slot != entry) continue;
      it->second.slot = Due{};
      // Moved out so a callback that unsubscribes itself does not destroy
      // the callable mid-invocation.
      EventCallback fn = std::move(it->second.fn);
      ++fires_;
      fn();
      it = subs_.find(id);
      if (it == subs_.end()) continue;  // unsubscribed itself
      it->second.fn = std::move(fn);
      it->second.next_due += it->second.period;
      Arm(id);
    }
  }
  firing_ = false;
  if (!due_.empty()) {
    armed_at_ = due_.begin()->fire;
    armed_event_ = sim_->ScheduleAt(armed_at_, [this] { OnTick(); });
  }
}

}  // namespace ks::sim
