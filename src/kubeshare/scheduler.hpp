#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_set>

#include "common/stats.hpp"
#include "k8s/cluster.hpp"
#include "k8s/store.hpp"
#include "kubeshare/algorithm.hpp"
#include "kubeshare/config.hpp"
#include "kubeshare/pool.hpp"
#include "kubeshare/sharepod.hpp"

namespace ks::kubeshare {

/// KubeShare-Sched: the controller that decides the container -> vGPU
/// mapping (paper §4.3). It watches unscheduled sharePods, runs Algorithm 1
/// against the vGPU pool, and writes the chosen GPUID/nodeName back into
/// the SharePodSpec; KubeShare-DevMgr picks the update up from there.
///
/// Scheduling is serial, one cycle at a time, costing sched_fixed +
/// sched_per_sharepod * live sharePods (Fig 11's O(N): the modeled cycle
/// re-reads every live sharePod through the apiserver). The host does not
/// scan: store write observers keep the live count and native GPUs per node.
class KubeShareSched {
 public:
  KubeShareSched(k8s::Cluster* cluster,
                 k8s::ObjectStore<SharePod>* sharepods, VgpuPool* pool,
                 KubeShareConfig config);
  /// Crashes a running scheduler; the stores it observes must outlive it.
  ~KubeShareSched() { Crash(); }

  Status Start();

  /// Chaos model of a scheduler process death: the watch is dropped and
  /// the in-memory queue/backoff state is lost. Timers already in flight
  /// become no-ops (epoch guard). The shared pool is NOT touched — it is
  /// DevMgr's state to lose.
  void Crash();

  /// Brings a crashed scheduler back. Re-watching replays every sharePod
  /// as an Added event (the informer list phase), which re-enqueues all
  /// still-unscheduled sharePods — the relist IS the state reconstruction.
  Status Restart();

  /// Leader-election hook: writes are stamped with the token this returns
  /// (0 = unfenced). A deposed leader keeps returning its stale token, so
  /// the store rejects its writes — which is the point.
  void SetFencingTokenProvider(std::function<std::uint64_t()> provider);

  /// Free physical (not-yet-vGPU) GPUs per node: node capacity minus vGPUs
  /// already acquired there minus native GPU pods. This is the supply
  /// Algorithm 1's new_dev() can draw on.
  ///
  /// Snapshot-based: the (node, capacity - native pods) base is rebuilt
  /// only when the node store's version or some node's native GPU count
  /// moves, not per decision or pod write; the vGPU pool term is applied
  /// live. Empty while the scheduler is down: it keeps the native counts.
  std::vector<NodeFreeGpus> FreePhysicalGpus() const;

  std::uint64_t scheduled_count() const { return scheduled_count_; }
  std::uint64_t rejected_count() const { return rejected_count_; }
  std::uint64_t retry_count() const { return retry_count_; }
  /// Snapshot cache behaviour: rebuilds vs. version-match reuses.
  std::uint64_t snapshot_refreshes() const { return snapshot_refreshes_; }
  std::uint64_t snapshot_hits() const { return snapshot_hits_; }
  std::uint64_t crashes() const { return crashes_; }
  /// Non-terminal sharePods in the store: the N a cycle is priced at.
  std::int64_t live_sharepods() const { return live_; }
  /// False before Start and between Crash and Restart.
  bool running() const { return started_; }
  /// Pure-algorithm time (wall clock) per decision — Fig 11's subject.
  const RunningStats& decision_stats() const { return decision_stats_; }

 private:
  /// A queued sharePod: its priority as read at enqueue and its arrival
  /// sequence. The queue runs highest priority first, FIFO among equals.
  struct QueueEntry {
    int priority;
    std::uint64_t seq;
    std::string name;
    bool operator<(const QueueEntry& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq < other.seq;
    }
  };

  void OnSharePodEvent(const k8s::WatchEvent<SharePod>& event);
  void OnPodWrite(const k8s::Pod* before, const k8s::Pod* after);
  /// Queues `name` unless it is already queued; false if it was.
  bool Enqueue(const std::string& name, int priority);
  void Pump();
  void ScheduleOne(const std::string& name);
  std::uint64_t Token() const;

  k8s::Cluster* cluster_;
  k8s::ObjectStore<SharePod>* sharepods_;
  VgpuPool* pool_;
  KubeShareConfig config_;
  std::function<std::uint64_t()> token_provider_;

  std::set<QueueEntry> queue_;
  std::unordered_set<std::string> queued_;
  std::uint64_t next_seq_ = 0;
  /// Unschedulable sharePods parked until the next flush. Flushing them
  /// back as a group (rather than per-pod timers) lets priority reorder
  /// the contenders every time capacity might have freed up.
  std::unordered_set<std::string> waiting_;
  bool flush_scheduled_ = false;
  bool cycle_active_ = false;
  bool started_ = false;
  k8s::WatchId watch_ = 0;
  k8s::ObserverId live_observer_ = 0;
  k8s::ObserverId native_observer_ = 0;
  /// Kept by the observers while running; the version moves with a count.
  std::int64_t live_ = 0;
  std::map<std::string, int> native_gpus_;
  std::uint64_t native_version_ = 0;
  /// Bumped by Crash so timers scheduled pre-crash no-op post-restart.
  std::uint64_t epoch_ = 0;
  std::uint64_t crashes_ = 0;

  std::uint64_t scheduled_count_ = 0;
  std::uint64_t rejected_count_ = 0;
  std::uint64_t retry_count_ = 0;
  RunningStats decision_stats_;

  /// FreePhysicalGpus snapshot cache, keyed on the node store version and
  /// the native version it was built from. mutable: the cache is an
  /// observable-behaviour-free memoization of a const query.
  mutable std::vector<NodeFreeGpus> snapshot_base_;
  mutable std::uint64_t snapshot_native_version_ = 0;
  mutable std::uint64_t snapshot_nodes_version_ = 0;
  mutable bool snapshot_valid_ = false;
  mutable std::uint64_t snapshot_refreshes_ = 0;
  mutable std::uint64_t snapshot_hits_ = 0;
};

}  // namespace ks::kubeshare
