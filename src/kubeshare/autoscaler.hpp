#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "common/status.hpp"
#include "common/time.hpp"
#include "kubeshare/replicaset.hpp"
#include "sim/simulation.hpp"
#include "sim/tick_hub.hpp"

namespace ks::kubeshare {

/// Tuning of the SLO-headroom horizontal autoscaler.
struct AutoscalerConfig {
  /// The p99 latency target the controller defends.
  Duration slo_p99 = Millis(250);
  int min_replicas = 1;
  int max_replicas = 8;
  /// Scale up once observed p99 >= up_threshold * slo; scale down once it
  /// falls under down_threshold * slo. The dead band between them is the
  /// first half of the hysteresis (the cooldowns are the second half) —
  /// without it the controller would flap on every estimate wiggle.
  double up_threshold = 0.85;
  double down_threshold = 0.40;
  /// Evaluation period (rides the cluster's shared TickHub, so the
  /// controller costs the engine no private events).
  Duration period = Seconds(1.0);
  /// Minimum spacing between consecutive scale-ups / scale-downs.
  /// Scale-down is deliberately the slower direction: adding capacity
  /// fixes an SLO breach, removing it can cause one.
  Duration up_cooldown = Seconds(2.0);
  Duration down_cooldown = Seconds(10.0);
  /// Replicas added / removed per decision. Up is the bigger step for the
  /// same asymmetry reason.
  int up_step = 2;
  int down_step = 1;
};

/// Metrics-driven horizontal autoscaler on top of SharePodReplicaSet
/// (ROADMAP item 4): every `period` it reads the service's observed p99
/// from a metric probe (typically serving::ServiceFrontend's windowed
/// digest, i.e. the same estimate the ks_slo_* family exports) and scales
/// the replicaset on SLO headroom with hysteresis.
///
/// Crash-restart safety follows the codebase's controller discipline: the
/// system of record for the scale decision is the replicaset's desired
/// count — every evaluation re-reads rs->desired() and writes through
/// Scale() (whose reconciliation uses the apiserver's optimistic
/// concurrency via RetryOnConflict on the delete path). The controller
/// itself keeps only rate-limit state (cooldown clocks), so a crashed and
/// restarted autoscaler resumes from the surviving desired count instead
/// of resetting the fleet (tests/recovery/autoscaler_recovery_test.cpp
/// replays this across the chaos seed matrix).
class SloAutoscaler {
 public:
  /// Returns the service's observed p99 in seconds; <= 0 means "no data"
  /// (cold start) and produces no decision.
  using MetricProbe = std::function<double()>;

  SloAutoscaler(sim::Simulation* sim, sim::TickHub* hub,
                SharePodReplicaSet* replicaset, AutoscalerConfig config,
                MetricProbe probe);
  ~SloAutoscaler();

  SloAutoscaler(const SloAutoscaler&) = delete;
  SloAutoscaler& operator=(const SloAutoscaler&) = delete;

  /// Arms the evaluation tick. Also clamps the replicaset into
  /// [min_replicas, max_replicas] immediately.
  Status Start();

  /// Fault injection: the controller process dies. The tick disarms and
  /// in-memory rate-limit state is lost; the replicaset (the store) keeps
  /// its desired count and its replicas keep serving.
  void Crash();
  /// The controller restarts: re-reads desired() from the store and
  /// resumes evaluating. Cooldown clocks restart from the restart time —
  /// a rebooted controller rate-limits conservatively rather than acting
  /// on history it no longer has.
  void Restart();

  bool down() const { return down_; }
  const AutoscalerConfig& config() const { return config_; }
  std::uint64_t evaluations() const { return evaluations_; }
  std::uint64_t scale_ups() const { return scale_ups_; }
  std::uint64_t scale_downs() const { return scale_downs_; }
  std::uint64_t crashes() const { return crashes_; }

 private:
  void Arm();
  void Disarm();
  void Evaluate();

  sim::Simulation* sim_;
  sim::TickHub* hub_;
  SharePodReplicaSet* replicaset_;
  AutoscalerConfig config_;
  MetricProbe probe_;

  sim::TickHub::SubId sub_ = 0;
  bool started_ = false;
  bool down_ = false;
  Time last_up_{std::numeric_limits<std::int64_t>::min() / 4};
  Time last_down_{std::numeric_limits<std::int64_t>::min() / 4};
  std::uint64_t evaluations_ = 0;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  std::uint64_t crashes_ = 0;
};

}  // namespace ks::kubeshare
