#include "kubeshare/autoscaler.hpp"

#include <algorithm>
#include <cassert>

namespace ks::kubeshare {

SloAutoscaler::SloAutoscaler(sim::Simulation* sim, sim::TickHub* hub,
                             SharePodReplicaSet* replicaset,
                             AutoscalerConfig config, MetricProbe probe)
    : sim_(sim),
      hub_(hub),
      replicaset_(replicaset),
      config_(config),
      probe_(std::move(probe)) {
  assert(sim_ != nullptr && hub_ != nullptr && replicaset_ != nullptr);
}

SloAutoscaler::~SloAutoscaler() { Disarm(); }

Status SloAutoscaler::Start() {
  if (started_) return FailedPreconditionError("autoscaler already started");
  if (!probe_) return InvalidArgumentError("autoscaler needs a metric probe");
  if (config_.min_replicas < 0 || config_.max_replicas < config_.min_replicas) {
    return InvalidArgumentError("autoscaler replica bounds are inverted");
  }
  if (config_.period <= Duration{0}) {
    return InvalidArgumentError("autoscaler period must be positive");
  }
  started_ = true;
  down_ = false;
  const int clamped = std::clamp(replicaset_->desired(), config_.min_replicas,
                                 config_.max_replicas);
  if (clamped != replicaset_->desired()) replicaset_->Scale(clamped);
  Arm();
  return Status::Ok();
}

void SloAutoscaler::Crash() {
  if (!started_ || down_) return;
  down_ = true;
  ++crashes_;
  Disarm();
}

void SloAutoscaler::Restart() {
  if (!started_ || !down_) return;
  down_ = false;
  // Fresh rate-limit clocks: the restarted process has no memory of its
  // previous decisions, so it waits out a full cooldown before acting.
  const Time now = sim_->Now();
  last_up_ = now;
  last_down_ = now;
  Arm();
}

void SloAutoscaler::Arm() {
  sub_ = hub_->Subscribe(config_.period, [this] { Evaluate(); });
}

void SloAutoscaler::Disarm() {
  if (sub_ == 0) return;
  hub_->Unsubscribe(sub_);
  sub_ = 0;
}

void SloAutoscaler::Evaluate() {
  if (down_) return;  // hub tick raced a crash
  ++evaluations_;
  // The replicaset is the store: re-read desired() every tick instead of
  // trusting an in-memory shadow, so a controller that crashed and
  // restarted (or a concurrent Scale from an operator) is handled the same
  // as steady state.
  const int current = replicaset_->desired();
  const double p99 = probe_();
  if (p99 <= 0.0) return;  // cold start: no samples yet
  const double slo = ToSeconds(config_.slo_p99);
  const Time now = sim_->Now();
  if (p99 >= config_.up_threshold * slo) {
    if (now - last_up_ < config_.up_cooldown) return;
    const int target =
        std::min(current + config_.up_step, config_.max_replicas);
    if (target <= current) return;
    last_up_ = now;
    ++scale_ups_;
    replicaset_->Scale(target);
    return;
  }
  if (p99 < config_.down_threshold * slo) {
    if (now - last_down_ < config_.down_cooldown) return;
    const int target =
        std::max(current - config_.down_step, config_.min_replicas);
    if (target >= current) return;
    last_down_ = now;
    ++scale_downs_;
    replicaset_->Scale(target);
    return;
  }
  // Inside the dead band: hold.
}

}  // namespace ks::kubeshare
