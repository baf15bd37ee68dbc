#pragma once

#include <string>

#include "common/status.hpp"
#include "k8s/events.hpp"
#include "k8s/latency.hpp"
#include "k8s/lease.hpp"
#include "k8s/objects.hpp"
#include "k8s/store.hpp"
#include "sim/simulation.hpp"

namespace ks::k8s {

/// The frontend to shared cluster state: typed stores for the built-in
/// kinds plus helpers for the mutations the components perform (bind,
/// phase transitions). Custom resource kinds (KubeShare's sharePod) live in
/// their own ObjectStore owned by the extension — the apiserver does not
/// need to know about them, which is the compatibility property the paper
/// emphasizes (§4.6).
class ApiServer {
 public:
  /// Every store on this apiserver delivers watch events through one shared
  /// hub, which runs same-time deliveries from one engine event in enqueue
  /// order (see WatchHub). Extension stores that can interleave deliveries
  /// with the built-in kinds (KubeShare's sharePod store) must join the same
  /// hub via watch_hub().
  explicit ApiServer(sim::Simulation* sim, LatencyModel latency = {})
      : sim_(sim),
        latency_(latency),
        watch_hub_(sim),
        pods_(sim, latency.watch_propagation, &watch_hub_),
        nodes_(sim, latency.watch_propagation, &watch_hub_),
        leases_(sim, latency.watch_propagation, &watch_hub_),
        events_(sim) {}

  ObjectStore<Pod>& pods() { return pods_; }
  const ObjectStore<Pod>& pods() const { return pods_; }
  ObjectStore<Node>& nodes() { return nodes_; }
  const ObjectStore<Node>& nodes() const { return nodes_; }
  ObjectStore<Lease>& leases() { return leases_; }
  const ObjectStore<Lease>& leases() const { return leases_; }
  EventRecorder& events() { return events_; }
  const EventRecorder& events() const { return events_; }

  sim::Simulation* sim() { return sim_; }
  const LatencyModel& latency() const { return latency_; }

  /// The delivery hub shared by every store on this apiserver. Extension
  /// stores pass this to their ObjectStore constructor so same-time
  /// deliveries across stores run in the order they were written.
  WatchHub& watch_hub() { return watch_hub_; }
  const WatchHub& watch_hub() const { return watch_hub_; }

  /// Binds a pending pod to a node (the scheduler's Bind subresource call).
  /// A leader-elected scheduler passes its fencing token so a deposed
  /// replica's late bind is rejected instead of applied.
  Status BindPod(const std::string& pod_name, const std::string& node_name,
                 std::uint64_t fencing_token = 0) {
    if (!nodes_.Contains(node_name)) {
      return NotFoundError("no node: " + node_name);
    }
    return RetryOnConflict(
        pods_, pod_name,
        [&](Pod& pod) {
          if (pod.scheduled()) {
            return FailedPreconditionError("pod already bound: " + pod_name);
          }
          pod.status.node_name = node_name;
          pod.status.scheduled_time = sim_->Now();
          return Status::Ok();
        },
        fencing_token);
  }

  /// Kubelet status updates.
  Status SetPodPhase(const std::string& pod_name, PodPhase phase,
                     const std::string& message = "") {
    return RetryOnConflict(pods_, pod_name, [&](Pod& pod) {
      pod.status.phase = phase;
      if (!message.empty()) pod.status.message = message;
      if (phase == PodPhase::kRunning) pod.status.running_time = sim_->Now();
      if (phase == PodPhase::kSucceeded || phase == PodPhase::kFailed) {
        pod.status.finished_time = sim_->Now();
      }
      return Status::Ok();
    });
  }

  Status SetPodEnv(const std::string& pod_name,
                   std::map<std::string, std::string> env,
                   std::uint64_t fencing_token = 0) {
    return RetryOnConflict(
        pods_, pod_name,
        [&](Pod& pod) {
          pod.status.effective_env = env;
          return Status::Ok();
        },
        fencing_token);
  }

 private:
  sim::Simulation* sim_;
  LatencyModel latency_;
  WatchHub watch_hub_;
  ObjectStore<Pod> pods_;
  ObjectStore<Node> nodes_;
  ObjectStore<Lease> leases_;
  EventRecorder events_;
};

}  // namespace ks::k8s
