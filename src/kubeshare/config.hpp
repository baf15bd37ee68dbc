#pragma once

#include "common/time.hpp"
#include "kubeshare/algorithm_variant.hpp"

namespace ks::kubeshare {

/// vGPU pool lifecycle policy (paper §4.4): on-demand releases idle vGPUs
/// back to Kubernetes immediately (lowest GPU hoarding, pays the
/// acquisition latency per miss); reservation keeps idle vGPUs around
/// (fast re-binding, but the kube-scheduler sees them as allocated);
/// hybrid — the "hybrid strategy can also be designed" the paper sketches
/// — keeps up to `hybrid_reserve` idle vGPUs and releases the rest.
enum class PoolPolicy { kOnDemand, kReservation, kHybrid };

struct KubeShareConfig {
  /// Fixed cost per KubeShare-Sched cycle...
  Duration sched_fixed = Millis(3);
  /// ...plus the per-SharePod status query cost — the O(N) term measured
  /// in Fig 11 (the paper's Go implementation stays under 400 ms at 100
  /// SharePods; 1.5 ms/SharePod keeps the same linear shape inside that
  /// bound without making the serial scheduler the throughput bottleneck).
  Duration sched_per_sharepod = Micros(1500);
  /// Backoff before retrying a SharePod that found no capacity.
  Duration sched_retry = Millis(500);
  /// DevMgr's vGPU info query + container environment preparation — the
  /// bulk of the ~15% no-creation overhead of Fig 10.
  Duration devmgr_query = Millis(250);
  PoolPolicy pool_policy = PoolPolicy::kOnDemand;
  /// Idle vGPUs kept warm under PoolPolicy::kHybrid.
  int hybrid_reserve = 2;
  /// Step-3 placement policy (kPaper = Algorithm 1 as published; the other
  /// variants exist for the design-choice ablation).
  PlacementVariant placement = PlacementVariant::kPaper;
  /// Periodic DevMgr reconcile/resync pass (0 = disabled, the seed
  /// behavior). Each pass garbage-collects vGPUs and GPUID<->UUID bindings
  /// stranded on NotReady nodes, requeues their sharePods, repairs records
  /// whose terminal workload-pod transition was missed (a dropped watch
  /// event), and adopts scheduled sharePods the watch never delivered.
  Duration reconcile_period = Millis(0);
  /// Run the control plane behind a Lease-based leader election. The
  /// facade campaigns for the "kubeshare-controller" lease and stamps the
  /// won fencing token into every controller write, so a deposed replica's
  /// stale writes are rejected at the store instead of applied. The lease
  /// runs on k8s::LeaderElectorConfig's defaults.
  bool enable_leader_election = false;
};

}  // namespace ks::kubeshare
