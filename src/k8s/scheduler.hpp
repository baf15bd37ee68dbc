#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/status.hpp"
#include "k8s/apiserver.hpp"

namespace ks::k8s {

/// kube-scheduler: assigns pending pods to nodes, considering resource
/// requests and aggregate node capacity.
///
/// Two properties of the stock scheduler matter for the paper:
///  - it only sees *aggregate* per-node resource counts, never individual
///    device identities (§3.1), so it cannot avoid intra-node device
///    fragmentation;
///  - pods that already carry a nodeName bypass it entirely, which is the
///    hook KubeShare-DevMgr uses to co-exist with it (§4.6).
///
/// Scoring follows the default LeastAllocated spreading policy. Pods are
/// scheduled serially (one scheduling cycle at a time), each cycle costing
/// sched_fixed + sched_per_node * |nodes|.
class KubeScheduler {
 public:
  explicit KubeScheduler(ApiServer* api, Duration retry_backoff = Seconds(1));

  Status Start();

  /// Informer-style relist, repairing cache state lost to dropped watch
  /// events: enqueues pending pods whose Added event was swallowed, adds
  /// missing reservations for extension-bound pods, and drops reservations
  /// whose pod is gone or terminal. Driven by Cluster when
  /// ClusterConfig::component_resync is enabled.
  void ResyncOnce();

  std::uint64_t scheduled_count() const { return scheduled_count_; }
  std::uint64_t retry_count() const { return retry_count_; }

  /// Node resources reserved by scheduled, non-terminal pods (scheduler
  /// cache view; exposed for tests).
  ResourceList AllocatedOn(const std::string& node) const;

 private:
  void OnPodEvent(const WatchEvent<Pod>& event);
  void Enqueue(const std::string& pod_name);
  void Pump();
  void ScheduleOne(const std::string& pod_name);
  Expected<std::string> PickNode(const Pod& pod) const;
  void Reserve(const Pod& pod, const std::string& node);
  void Unreserve(const std::string& pod_name);

  ApiServer* api_;
  sim::Simulation* sim_;
  Duration retry_backoff_;

  std::deque<std::string> queue_;
  std::unordered_set<std::string> queued_;
  bool cycle_active_ = false;

  struct Reservation {
    std::string node;
    ResourceList requests;
  };
  std::unordered_map<std::string, Reservation> reservations_;
  std::unordered_map<std::string, ResourceList> node_allocated_;

  std::uint64_t scheduled_count_ = 0;
  std::uint64_t retry_count_ = 0;
  bool started_ = false;
};

}  // namespace ks::k8s
