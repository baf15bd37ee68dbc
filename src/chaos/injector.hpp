#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/status.hpp"
#include "k8s/cluster.hpp"
#include "k8s/leader_election.hpp"
#include "kubeshare/kubeshare.hpp"

namespace ks::workload {
class WorkloadHost;
}  // namespace ks::workload

namespace ks::chaos {

/// Everything the injector itself can observe about a chaos run. The
/// component-level recovery counters (evictions, vGPUs reclaimed, sharePods
/// requeued, frontends re-registered) live on the components that perform
/// the recovery; metrics::CollectRecoveryMetrics gathers both sides.
struct ChaosStats {
  std::uint64_t faults_injected = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t node_recoveries = 0;
  std::uint64_t daemon_restarts = 0;
  std::uint64_t oom_kills = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t watch_events_dropped = 0;
  std::uint64_t devmgr_crashes = 0;
  std::uint64_t sched_crashes = 0;
  std::uint64_t leader_partitions = 0;
  /// Adversarial-tenant faults injected, by kind, plus how many hostile
  /// windows were closed again (the tenant returned to the polite
  /// protocol; windows open at end-of-run or ended by eviction don't
  /// close).
  std::uint64_t tenant_overstays = 0;
  std::uint64_t tenant_floods = 0;
  std::uint64_t tenant_probes = 0;
  std::uint64_t tenant_spoofs = 0;
  std::uint64_t tenant_attacks_cleared = 0;
  /// Faults skipped because their target was gone (node already down,
  /// no running pod to OOM-kill, ...). Skips are recorded, not errors —
  /// a random plan may legitimately race its own outages.
  std::uint64_t faults_skipped = 0;

  /// Node-crash recovery measurement: a crash snapshots the pods bound to
  /// the node; the fault is "recovered" when none of them is still
  /// non-terminal on that node (evicted, finished, or requeued elsewhere).
  std::uint64_t recoveries_measured = 0;
  std::uint64_t recoveries_timed_out = 0;
  Duration total_recovery_time{0};

  /// DevMgr-crash recovery: crash snapshots the non-terminal sharePods;
  /// recovered when the rebuilt pool passes its index invariants and every
  /// snapshot member is terminal, requeued, running, or has a live
  /// workload pod again.
  std::uint64_t devmgr_recoveries_measured = 0;
  Duration devmgr_recovery_time{0};
  /// Sched-crash recovery: crash snapshots the unscheduled sharePods;
  /// recovered when each is scheduled, terminal, or gone.
  std::uint64_t sched_recoveries_measured = 0;
  Duration sched_recovery_time{0};
  /// Leader-partition recovery: time until a non-partitioned candidate
  /// holds leadership again.
  std::uint64_t leader_takeovers_measured = 0;
  Duration leader_takeover_time{0};

  Duration MeanTimeToRecovery() const {
    if (recoveries_measured == 0) return Duration{0};
    return total_recovery_time / static_cast<std::int64_t>(recoveries_measured);
  }
  Duration MeanDevMgrRecovery() const {
    if (devmgr_recoveries_measured == 0) return Duration{0};
    return devmgr_recovery_time /
           static_cast<std::int64_t>(devmgr_recoveries_measured);
  }
  Duration MeanSchedRecovery() const {
    if (sched_recoveries_measured == 0) return Duration{0};
    return sched_recovery_time /
           static_cast<std::int64_t>(sched_recoveries_measured);
  }
  Duration MeanLeaderTakeover() const {
    if (leader_takeovers_measured == 0) return Duration{0};
    return leader_takeover_time /
           static_cast<std::int64_t>(leader_takeovers_measured);
  }
};

/// Deterministic fault injector: replays a FaultPlan through the simulation
/// clock against a live cluster. Every injection lands in the event queue
/// at its scripted time, so the same plan against the same cluster and
/// workload yields a byte-identical event timeline.
class FaultInjector {
 public:
  FaultInjector(k8s::Cluster* cluster, FaultPlan plan);

  /// Schedules every fault in the plan. Call once, before running the
  /// simulation (faults whose time has already passed are skipped).
  Status Arm();

  /// Targets the KubeShare control plane for kDevMgrCrash / kSchedCrash
  /// (and registers its elector for kLeaderPartition, when it has one).
  /// Without this, controller faults are recorded as skips.
  void SetKubeShare(kubeshare::KubeShare* kubeshare);

  /// Registers an additional leader-election candidate (e.g. a standby
  /// replica in a test) as a kLeaderPartition target / takeover observer.
  void RegisterElector(k8s::LeaderElector* elector);

  /// Targets the workload host for the kTenant* adversarial faults — the
  /// injector flips a running job's frontend hook hostile through it.
  /// Without this, adversarial faults are recorded as skips.
  void SetWorkloadHost(workload::WorkloadHost* host);

  const ChaosStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void Inject(const Fault& fault);
  void InjectNodeCrash(const Fault& fault);
  void InjectNodeRecover(const Fault& fault);
  void InjectDaemonRestart(const Fault& fault);
  void InjectOomKill(const Fault& fault);
  void InjectDropEvents(const Fault& fault);
  void InjectLatencySpike(const Fault& fault);
  void InjectDevMgrCrash(const Fault& fault);
  void InjectSchedCrash(const Fault& fault);
  void InjectLeaderPartition(const Fault& fault);
  void InjectAdversarial(const Fault& fault);
  /// Drops `kind`'s behavior flag from the job's hook when the hostile
  /// window closes (other still-open windows keep their flags).
  void ClearAdversarial(const std::string& job, FaultKind kind);

  /// One fault's recovery (MTTR) probe; see ChaosStats for what each
  /// fault counts as recovered.
  struct Probe {
    /// The done event's message once the fault has recovered, nullopt
    /// while it has not. `elapsed` is the time since the fault struck.
    std::function<std::optional<std::string>(Duration elapsed)> converged;
    /// The event object, and the reasons recorded on recovery / timeout.
    std::string object;
    const char* done_reason;
    const char* timeout_reason;
    /// The ChaosStats count and total time a recovery adds to.
    std::uint64_t ChaosStats::*measured;
    Duration ChaosStats::*time;
    Time since;  // when the fault struck
  };
  /// Checks `probe` every 500 ms until it converges or 120 s have passed.
  void Poll(Probe probe);
  void RecordSkip(const Fault& fault, const std::string& why);

  k8s::Cluster* cluster_;
  FaultPlan plan_;
  kubeshare::KubeShare* kubeshare_ = nullptr;
  workload::WorkloadHost* workload_host_ = nullptr;
  std::vector<k8s::LeaderElector*> electors_;
  bool armed_ = false;
  ChaosStats stats_;
  /// Latency spikes still running, and the notify latencies from before
  /// the first of them (restored when the last one ends).
  int open_latency_spikes_ = 0;
  Duration pods_latency_before_{0};
  Duration nodes_latency_before_{0};
};

}  // namespace ks::chaos
