#include "k8s/cluster.hpp"

#include <cassert>

namespace ks::k8s {

Cluster::Cluster(ClusterConfig config) : config_(config) {
  api_ = std::make_unique<ApiServer>(&sim_, config_.latency);
  scheduler_ = std::make_unique<KubeScheduler>(api_.get());
  node_controller_ = std::make_unique<NodeLifecycleController>(
      api_.get(), config_.node_detection, config_.pod_eviction_timeout);
  nvml_ = std::make_unique<gpu::NvmlMonitor>(&tick_hub_, Seconds(1));

  for (int n = 0; n < config_.nodes; ++n) {
    auto handle = std::make_unique<NodeHandle>();
    handle->name = "node-" + std::to_string(n);

    std::vector<gpu::GpuDevice*> raw_gpus;
    for (int g = 0; g < config_.gpus_per_node; ++g) {
      const GpuUuid uuid("GPU-" + std::to_string(n) + "-" +
                         std::to_string(g));
      auto dev =
          std::make_unique<gpu::GpuDevice>(&sim_, uuid, config_.gpu_spec);
      nvml_->Register(dev.get());
      raw_gpus.push_back(dev.get());
      handle->gpus.push_back(std::move(dev));
    }

    if (config_.scaled_plugin) {
      handle->plugin = std::make_unique<ScaledNvidiaDevicePlugin>(
          raw_gpus, config_.plugin_scale);
    } else {
      handle->plugin = std::make_unique<NvidiaDevicePlugin>(raw_gpus);
    }

    handle->runtime = std::make_unique<ContainerRuntime>(
        &sim_, handle->name, raw_gpus, config_.latency);

    ResourceList machine;
    machine.Set(kResourceCpu, config_.cpu_millicores);
    machine.Set(kResourceMemory, config_.memory_bytes);
    handle->kubelet = std::make_unique<Kubelet>(
        api_.get(), handle->name, machine, handle->runtime.get(),
        handle->plugin.get());

    // The spatial knobs ride the backend config into each node's token
    // daemon (the daemon itself has no view of ClusterConfig).
    vgpu::BackendConfig backend_cfg = config_.backend;
    if (config_.spatial.enabled) {
      backend_cfg.spatial_enabled = true;
      backend_cfg.sm_groups = config_.spatial.sm_groups;
    }
    handle->token_backend =
        std::make_unique<vgpu::TokenBackend>(&sim_, backend_cfg);
    for (gpu::GpuDevice* g : raw_gpus) {
      handle->token_backend->RegisterDevice(g->uuid());
    }
    if (backend_cfg.enforcement.enabled) {
      // Isolation enforcement closes the loop between daemon and device:
      // the backend drives the per-owner token gates / memory quotas, and
      // the device reports what the gates caught back to the backend's
      // per-tenant violation ledger.
      handle->token_backend->SetDeviceResolver(
          [this](const GpuUuid& u) { return FindGpu(u); });
      vgpu::TokenBackend* backend = handle->token_backend.get();
      for (gpu::GpuDevice* g : raw_gpus) {
        g->SetViolationFn([backend](const ContainerId& owner,
                                    gpu::DeviceViolation v) {
          backend->RecordViolation(
              owner, v == gpu::DeviceViolation::kMemoryQuota
                         ? vgpu::ViolationKind::kMemoryQuota
                         : vgpu::ViolationKind::kFencedSubmit);
        });
      }
    }

    nodes_.push_back(std::move(handle));
  }
}

Cluster::~Cluster() = default;

Status Cluster::Start() {
  if (started_) return FailedPreconditionError("cluster already started");
  started_ = true;
  for (auto& node : nodes_) {
    KS_RETURN_IF_ERROR(node->kubelet->Start());
  }
  KS_RETURN_IF_ERROR(scheduler_->Start());
  if (config_.component_resync.count() > 0) ScheduleResync();
  return Status::Ok();
}

void Cluster::ScheduleResync() {
  // Perpetual self-rescheduling loop: only runs when the resync knob is
  // set, and then the simulation must be driven with RunUntil().
  sim_.ScheduleAfter(config_.component_resync, [this] {
    for (auto& node : nodes_) node->kubelet->ResyncOnce();
    scheduler_->ResyncOnce();
    ScheduleResync();
  });
}

void Cluster::Index() {
  for (auto& node : nodes_) {
    nodes_by_name_.emplace(node->name, node.get());
    for (auto& dev : node->gpus) {
      gpus_by_uuid_.emplace(dev->uuid(), GpuHome{node.get(), dev.get()});
    }
  }
}

Cluster::NodeHandle* Cluster::FindNode(const std::string& name) {
  if (nodes_by_name_.empty()) Index();
  auto it = nodes_by_name_.find(name);
  return it == nodes_by_name_.end() ? nullptr : it->second;
}

gpu::GpuDevice* Cluster::FindGpu(const GpuUuid& uuid) {
  if (gpus_by_uuid_.empty()) Index();
  auto it = gpus_by_uuid_.find(uuid);
  return it == gpus_by_uuid_.end() ? nullptr : it->second.device;
}

vgpu::TokenBackend* Cluster::BackendForGpu(const GpuUuid& uuid) {
  if (gpus_by_uuid_.empty()) Index();
  auto it = gpus_by_uuid_.find(uuid);
  return it == gpus_by_uuid_.end() ? nullptr
                                   : it->second.node->token_backend.get();
}

void Cluster::SetContainerStartHook(ContainerRuntime::StartHook hook) {
  for (auto& node : nodes_) {
    node->runtime->SetStartHook(hook);
  }
}

void Cluster::SetContainerStopHook(ContainerRuntime::StopHook hook) {
  for (auto& node : nodes_) {
    node->runtime->SetStopHook(hook);
  }
}

Status Cluster::ExitPodContainer(const std::string& pod_name, bool success,
                                 const std::string& reason) {
  const Pod* pod = api_->pods().Find(pod_name);
  if (pod == nullptr) return NotFoundError("no object: " + pod_name);
  NodeHandle* node = FindNode(pod->status.node_name);
  if (node == nullptr) {
    return NotFoundError("pod not bound to a known node: " + pod_name);
  }
  return node->runtime->ExitContainerByPod(pod_name, success, reason);
}

Status Cluster::CrashNode(const std::string& node_name) {
  NodeHandle* node = FindNode(node_name);
  if (node == nullptr) return NotFoundError("no node: " + node_name);
  if (node->crashed) {
    return FailedPreconditionError("node already crashed: " + node_name);
  }
  node->crashed = true;
  api_->events().Record("chaos", "node/" + node_name, "NodeCrash");
  // Order matters: containers die first (stop hooks tear down the
  // in-container stacks, which unregister from the token backend on the
  // next event), then the kubelet forgets everything, then the token
  // daemon's state is wiped — by the time its restart window elapses only
  // genuinely surviving frontends re-register (none, for a node crash).
  node->runtime->CrashAll();
  (void)node->kubelet->Crash();
  node->token_backend->Restart();
  node_controller_->ReportNodeFailure(node_name);
  return Status::Ok();
}

Status Cluster::RecoverNode(const std::string& node_name) {
  NodeHandle* node = FindNode(node_name);
  if (node == nullptr) return NotFoundError("no node: " + node_name);
  if (!node->crashed) {
    return FailedPreconditionError("node is not crashed: " + node_name);
  }
  node->crashed = false;
  api_->events().Record("chaos", "node/" + node_name, "NodeRecover");
  (void)node->kubelet->Recover();
  node_controller_->ReportNodeRecovery(node_name);
  return Status::Ok();
}

bool Cluster::NodeCrashed(const std::string& node_name) {
  NodeHandle* node = FindNode(node_name);
  return node != nullptr && node->crashed;
}

Status Cluster::OomKillPod(const std::string& pod_name) {
  const Pod* pod = api_->pods().Find(pod_name);
  if (pod == nullptr) return NotFoundError("no object: " + pod_name);
  NodeHandle* node = FindNode(pod->status.node_name);
  if (node == nullptr) {
    return NotFoundError("pod not bound to a known node: " + pod_name);
  }
  api_->events().Record("chaos", "pod/" + pod_name, "OomKill");
  return node->runtime->ExitContainerByPod(pod_name, false, "OOMKilled");
}

}  // namespace ks::k8s
