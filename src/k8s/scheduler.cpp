#include "k8s/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "common/log.hpp"

namespace ks::k8s {

KubeScheduler::KubeScheduler(ApiServer* api, Duration retry_backoff)
    : api_(api), sim_(api->sim()), retry_backoff_(retry_backoff) {}

Status KubeScheduler::Start() {
  if (started_) return FailedPreconditionError("scheduler already started");
  started_ = true;
  api_->pods().Watch([this](const WatchEvent<Pod>& ev) { OnPodEvent(ev); });
  return Status::Ok();
}

void KubeScheduler::OnPodEvent(const WatchEvent<Pod>& event) {
  const Pod& pod = event.object;
  switch (event.type) {
    case WatchEventType::kAdded:
    case WatchEventType::kModified:
      if (pod.terminal()) {
        Unreserve(pod.meta.name);
        return;
      }
      if (pod.scheduled()) {
        // Bound by us (already reserved) or directly by an extension
        // (KubeShare sharePods carry nodeName at creation) — account for it
        // so native scheduling sees the node pressure either way.
        if (reservations_.count(pod.meta.name) == 0) {
          Reserve(pod, pod.status.node_name);
        }
        return;
      }
      Enqueue(pod.meta.name);
      return;
    case WatchEventType::kDeleted:
      Unreserve(pod.meta.name);
      return;
  }
}

void KubeScheduler::ResyncOnce() {
  // List() is name-sorted, so the enqueue order is deterministic. Enqueue
  // dedups against queued_, and ScheduleOne re-checks the pod state at
  // cycle time, so re-listing an already-queued pod is harmless.
  for (const Pod& pod : api_->pods().List()) {
    if (pod.terminal()) continue;
    if (pod.scheduled()) {
      if (reservations_.count(pod.meta.name) == 0) {
        Reserve(pod, pod.status.node_name);
      }
      continue;
    }
    Enqueue(pod.meta.name);
  }
  // Release reservations whose pod vanished or finished (dropped Deleted
  // or terminal Modified event). reservations_ is unordered — sort.
  std::vector<std::string> stale;
  for (const auto& [name, res] : reservations_) {
    auto pod = api_->pods().Get(name);
    if (!pod.ok() || pod->terminal()) stale.push_back(name);
  }
  std::sort(stale.begin(), stale.end());
  for (const std::string& name : stale) Unreserve(name);
}

void KubeScheduler::Enqueue(const std::string& pod_name) {
  if (queued_.count(pod_name) > 0) return;
  queued_.insert(pod_name);
  queue_.push_back(pod_name);
  Pump();
}

void KubeScheduler::Pump() {
  if (cycle_active_ || queue_.empty()) return;
  cycle_active_ = true;
  const std::string pod_name = queue_.front();
  queue_.pop_front();
  queued_.erase(pod_name);
  const Duration cycle = api_->latency().sched_fixed +
                         api_->latency().sched_per_node *
                             static_cast<std::int64_t>(api_->nodes().size());
  sim_->ScheduleAfter(cycle, [this, pod_name] {
    cycle_active_ = false;
    ScheduleOne(pod_name);
    Pump();
  });
}

void KubeScheduler::ScheduleOne(const std::string& pod_name) {
  auto pod = api_->pods().Get(pod_name);
  if (!pod.ok() || pod->scheduled() || pod->terminal()) return;

  auto node = PickNode(*pod);
  if (!node.ok()) {
    // Unschedulable: back off and retry — capacity frees up as pods finish.
    ++retry_count_;
    api_->events().Record("kube-scheduler", "pod/" + pod_name,
                          "FailedScheduling", node.status().message());
    sim_->ScheduleAfter(retry_backoff_, [this, pod_name] {
      auto p = api_->pods().Get(pod_name);
      if (!p.ok() || p->scheduled() || p->terminal()) return;
      Enqueue(pod_name);
    });
    return;
  }

  Reserve(*pod, *node);
  const Status bound = api_->BindPod(pod_name, *node);
  if (!bound.ok()) {
    KS_LOG(kWarn) << "bind failed for " << pod_name << ": " << bound;
    Unreserve(pod_name);
    return;
  }
  ++scheduled_count_;
  api_->events().Record("kube-scheduler", "pod/" + pod_name, "Scheduled",
                        "assigned to " + *node);
}

Expected<std::string> KubeScheduler::PickNode(const Pod& pod) const {
  std::string best;
  bool found = false;
  double best_score = 0.0;
  api_->nodes().ForEach([&](const Node& node) {
    if (!node.ready) return;
    // Filter: nodeSelector labels.
    for (const auto& [k, v] : pod.spec.node_selector) {
      auto it = node.meta.labels.find(k);
      if (it == node.meta.labels.end() || it->second != v) return;
    }
    // Filter: aggregate resource fit.
    ResourceList free = node.capacity;
    auto ait = node_allocated_.find(node.meta.name);
    if (ait != node_allocated_.end()) free.Subtract(ait->second);
    if (!free.Fits(pod.spec.requests)) return;

    // Score: LeastAllocated — prefer the node with the most free capacity,
    // fraction-averaged over the resources the pod asks for.
    double score = 0.0;
    int terms = 0;
    for (const auto& [name, qty] : pod.spec.requests.items()) {
      const std::int64_t cap = node.capacity.Get(name);
      if (cap <= 0 || qty == 0) continue;
      score += static_cast<double>(free.Get(name)) /
               static_cast<double>(cap);
      ++terms;
    }
    if (terms > 0) score /= terms;
    if (!found || score > best_score) {
      best = node.meta.name;
      found = true;
      best_score = score;
    }
  });
  if (!found) {
    return UnavailableError("no node fits pod " + pod.meta.name);
  }
  return best;
}

void KubeScheduler::Reserve(const Pod& pod, const std::string& node) {
  reservations_[pod.meta.name] = {node, pod.spec.requests};
  node_allocated_[node].Add(pod.spec.requests);
}

void KubeScheduler::Unreserve(const std::string& pod_name) {
  auto it = reservations_.find(pod_name);
  if (it == reservations_.end()) return;
  node_allocated_[it->second.node].Subtract(it->second.requests);
  reservations_.erase(it);
}

ResourceList KubeScheduler::AllocatedOn(const std::string& node) const {
  auto it = node_allocated_.find(node);
  return it == node_allocated_.end() ? ResourceList{} : it->second;
}

}  // namespace ks::k8s
