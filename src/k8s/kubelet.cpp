#include "k8s/kubelet.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace ks::k8s {

Kubelet::Kubelet(ApiServer* api, std::string node_name,
                 ResourceList machine_capacity, ContainerRuntime* runtime,
                 DevicePlugin* plugin)
    : api_(api),
      sim_(api->sim()),
      node_name_(std::move(node_name)),
      capacity_(std::move(machine_capacity)),
      runtime_(runtime),
      plugin_(plugin) {
  assert(api_ != nullptr);
  assert(runtime_ != nullptr);
}

Status Kubelet::Start() {
  if (started_) return FailedPreconditionError("kubelet already started");
  started_ = true;

  // Device plugin registration: fold the advertised device count into the
  // node capacity pushed to the apiserver.
  if (plugin_ != nullptr) {
    for (const PluginDevice& d : plugin_->ListDevices()) {
      if (d.healthy) units_.push_back({d.id, false});
    }
    capacity_.Set(plugin_->resource_name(),
                  static_cast<std::int64_t>(units_.size()));
  }

  Node node;
  node.meta.name = node_name_;
  node.meta.labels["kubernetes.io/hostname"] = node_name_;
  node.capacity = capacity_;
  KS_RETURN_IF_ERROR(api_->nodes().Create(node));

  runtime_->SetExitListener([this](const std::string& pod_name, bool ok,
                                   const std::string& reason) {
    FinishPod(pod_name, ok, reason);
  });

  // Node-scoped watch (the spec.nodeName field selector): pods bound to
  // other nodes never reach this kubelet.
  api_->pods().Watch(
      [this](const WatchEvent<Pod>& ev) { OnPodEvent(ev); },
      [this](const Pod& pod) { return pod.status.node_name == node_name_; });
  return Status::Ok();
}

void Kubelet::OnPodEvent(const WatchEvent<Pod>& event) {
  if (crashed_) return;  // a dead agent sees nothing
  const Pod& pod = event.object;

  if (event.type == WatchEventType::kDeleted) {
    auto it = pods_.find(pod.meta.name);
    if (it == pods_.end()) return;
    if (it->second.state == PodState::kRunning ||
        it->second.state == PodState::kStarting) {
      (void)runtime_->KillContainer(pod.meta.name);
    }
    ReleasePod(pod.meta.name);
    return;
  }

  // Added/Modified: pick up newly-bound pods exactly once.
  if (pod.terminal()) return;
  if (pods_.count(pod.meta.name) > 0) return;
  AdoptPod(pod);
}

void Kubelet::AdoptPod(const Pod& pod) {
  pods_[pod.meta.name].state = PodState::kSyncing;
  pods_[pod.meta.name].requests = pod.spec.requests;
  const std::string name = pod.meta.name;
  sim_->ScheduleAfter(api_->latency().kubelet_sync, [this, name] {
    if (crashed_) return;
    auto it = pods_.find(name);
    if (it == pods_.end()) return;  // deleted while syncing
    auto pod_now = api_->pods().Get(name);
    if (!pod_now.ok()) return;
    // The adopting event can be a stale snapshot: a container that exits in
    // the step it started is finished (record gone, phase terminal) before
    // its Running write is delivered. Nothing is reserved yet; drop it.
    if (pod_now->terminal()) {
      pods_.erase(it);
      return;
    }
    SyncPod(*pod_now);
  });
}

Status Kubelet::Crash() {
  if (!started_) return FailedPreconditionError("kubelet not started");
  if (crashed_) return FailedPreconditionError("kubelet already crashed");
  crashed_ = true;
  // All in-memory state is gone: records, reservations, device bindings.
  pods_.clear();
  allocated_ = ResourceList{};
  for (UnitSlot& slot : units_) slot.in_use = false;
  return Status::Ok();
}

Status Kubelet::Recover() {
  if (!crashed_) return FailedPreconditionError("kubelet is not crashed");
  crashed_ = false;
  // Resync against the apiserver (List() is sorted — deterministic order).
  for (const Pod& pod : api_->pods().List()) {
    if (pod.status.node_name != node_name_) continue;
    if (pod.terminal()) continue;
    if (pod.status.phase == PodPhase::kRunning) {
      // Its container died with the node; restartPolicy is Never here.
      api_->events().Record("kubelet/" + node_name_, "pod/" + pod.meta.name,
                            "NodeLost");
      (void)api_->SetPodPhase(pod.meta.name, PodPhase::kFailed, "NodeLost");
      continue;
    }
    // Bound while the agent was down (or mid-sync at crash): start fresh.
    if (pods_.count(pod.meta.name) == 0) AdoptPod(pod);
  }
  return Status::Ok();
}

void Kubelet::ResyncOnce() {
  if (crashed_) return;
  // Reap records whose backing object is gone (dropped Deleted event):
  // kill the container and release the reservation, as OnPodEvent would
  // have. pods_ is unordered — sort the names for a deterministic order.
  std::vector<std::string> gone;
  for (const auto& [name, rec] : pods_) {
    if (!api_->pods().Contains(name)) gone.push_back(name);
  }
  std::sort(gone.begin(), gone.end());
  for (const std::string& name : gone) {
    const PodState state = pods_.at(name).state;
    if (state == PodState::kRunning || state == PodState::kStarting) {
      (void)runtime_->KillContainer(name);
    }
    ReleasePod(name);
  }
  // Adopt bound pods we never saw (dropped Added event). An unknown pod
  // already in phase Running is unreachable outside the crash path (only
  // this agent moves pods to Running), so it is left to Recover().
  for (const Pod& pod : api_->pods().List()) {
    if (pod.status.node_name != node_name_) continue;
    if (pod.terminal() || pod.status.phase == PodPhase::kRunning) continue;
    if (pods_.count(pod.meta.name) == 0) AdoptPod(pod);
  }
}

Status Kubelet::RefreshDevices() {
  if (plugin_ == nullptr) {
    return FailedPreconditionError("node has no device plugin");
  }
  const auto devices = plugin_->ListDevices();
  // Mark health on known units; append units that newly appeared.
  for (const PluginDevice& d : devices) {
    bool known = false;
    for (UnitSlot& slot : units_) {
      if (slot.id == d.id) {
        slot.healthy = d.healthy;
        known = true;
        break;
      }
    }
    if (!known) units_.push_back({d.id, false, d.healthy});
  }
  // Units the plugin no longer reports are gone.
  for (UnitSlot& slot : units_) {
    const bool reported = std::any_of(
        devices.begin(), devices.end(),
        [&](const PluginDevice& d) { return d.id == slot.id; });
    if (!reported) slot.healthy = false;
  }
  // Re-advertise: capacity counts healthy units only.
  std::int64_t healthy = 0;
  for (const UnitSlot& slot : units_) {
    if (slot.healthy) ++healthy;
  }
  capacity_.Set(plugin_->resource_name(), healthy);
  return RetryOnConflict(api_->nodes(), node_name_, [&](Node& node) {
    node.capacity.Set(plugin_->resource_name(), healthy);
    return Status::Ok();
  });
}

Expected<std::vector<std::string>> Kubelet::PickDeviceUnits(
    std::int64_t count) {
  std::vector<std::string> picked;
  for (UnitSlot& slot : units_) {
    if (static_cast<std::int64_t>(picked.size()) == count) break;
    if (!slot.in_use && slot.healthy) {
      slot.in_use = true;
      picked.push_back(slot.id);
    }
  }
  if (static_cast<std::int64_t>(picked.size()) != count) {
    for (const std::string& id : picked) {
      for (UnitSlot& slot : units_) {
        if (slot.id == id) slot.in_use = false;
      }
    }
    return ResourceExhaustedError("not enough free device units");
  }
  return picked;
}

void Kubelet::SyncPod(const Pod& pod) {
  const std::string name = pod.meta.name;
  PodRecord& rec = pods_.at(name);

  // Admission: reserve machine resources.
  ResourceList free = capacity_;
  free.Subtract(allocated_);
  if (!free.Fits(pod.spec.requests)) {
    pods_.erase(name);
    api_->events().Record("kubelet/" + node_name_, "pod/" + name,
                          "OutOfResources");
    (void)api_->SetPodPhase(name, PodPhase::kFailed, "OutOfResources");
    return;
  }
  allocated_.Add(pod.spec.requests);

  // Device allocation, if the pod asks for plugin devices.
  std::map<std::string, std::string> env = pod.spec.env;
  const std::int64_t device_count =
      plugin_ != nullptr ? pod.spec.requests.Get(plugin_->resource_name()) : 0;

  if (device_count > 0) {
    auto units = PickDeviceUnits(device_count);
    if (!units.ok()) {
      allocated_.Subtract(pod.spec.requests);
      pods_.erase(name);
      (void)api_->SetPodPhase(name, PodPhase::kFailed, "OutOfDevices");
      return;
    }
    rec.unit_ids = *units;
    // The Allocate RPC to the device plugin.
    sim_->ScheduleAfter(api_->latency().device_allocate,
                        [this, name, env, units = *units]() mutable {
      auto it = pods_.find(name);
      if (it == pods_.end()) return;
      auto resp = plugin_->Allocate(units);
      if (!resp.ok()) {
        ReleasePod(name);
        (void)api_->SetPodPhase(name, PodPhase::kFailed,
                                "DeviceAllocateFailed");
        return;
      }
      for (const auto& [k, v] : resp->env) env[k] = v;
      StartViaRuntime(name, std::move(env));
    });
  } else {
    StartViaRuntime(name, std::move(env));
  }
}

void Kubelet::StartViaRuntime(const std::string& name,
                              std::map<std::string, std::string> env) {
  auto it = pods_.find(name);
  if (it == pods_.end()) return;  // deleted while allocating
  it->second.state = PodState::kStarting;
  std::string image;
  if (auto pod = api_->pods().Get(name); pod.ok()) image = pod->spec.image;
  runtime_->StartContainer(name, std::move(env),
                           [this, name](const ContainerInstance& inst) {
    auto pit = pods_.find(name);
    if (pit == pods_.end()) return;
    pit->second.state = PodState::kRunning;
    api_->events().Record("kubelet/" + node_name_, "pod/" + name, "Started");
    (void)api_->SetPodEnv(name, inst.env);
    (void)api_->SetPodPhase(name, PodPhase::kRunning);
  }, image);
}

void Kubelet::FinishPod(const std::string& pod_name, bool success,
                        const std::string& reason) {
  if (crashed_) return;
  auto it = pods_.find(pod_name);
  if (it == pods_.end()) return;
  ReleasePod(pod_name);
  if (!reason.empty()) {
    api_->events().Record("kubelet/" + node_name_, "pod/" + pod_name, reason);
  }
  (void)api_->SetPodPhase(pod_name,
                          success ? PodPhase::kSucceeded : PodPhase::kFailed,
                          reason);
}

void Kubelet::ReleasePod(const std::string& pod_name) {
  auto it = pods_.find(pod_name);
  if (it == pods_.end()) return;
  allocated_.Subtract(it->second.requests);
  for (const std::string& id : it->second.unit_ids) {
    for (UnitSlot& slot : units_) {
      if (slot.id == id) slot.in_use = false;
    }
  }
  pods_.erase(it);
}

std::size_t Kubelet::FreeDeviceUnits() const {
  std::size_t free = 0;
  for (const UnitSlot& s : units_) {
    if (!s.in_use && s.healthy) ++free;
  }
  return free;
}

std::vector<std::string> Kubelet::UnitsOf(const std::string& pod_name) const {
  auto it = pods_.find(pod_name);
  if (it == pods_.end()) return {};
  return it->second.unit_ids;
}

}  // namespace ks::k8s
