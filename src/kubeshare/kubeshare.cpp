#include "kubeshare/kubeshare.hpp"

#include <cstdlib>
#include <map>

#include "kubeshare/algorithm.hpp"

namespace ks::kubeshare {

KubeShare::KubeShare(k8s::Cluster* cluster, KubeShareConfig config)
    : cluster_(cluster),
      config_(config),
      // The sharePod store joins the apiserver's delivery hub: its watch
      // events interleave with pod/node events at the same virtual times,
      // and one hub runs them in the order they were written.
      sharepods_(&cluster->sim(), cluster->api().latency().watch_propagation,
                 &cluster->api().watch_hub()) {
  const vgpu::OversubscriptionConfig& oversub = cluster_->config().oversub;
  pool_.set_memory_overcommit(oversub.enabled,
                              oversub.swap.oversubscription_factor);
  if (cluster_->config().spatial.enabled) {
    pool_.EnableSpatial(cluster_->config().spatial.sm_groups);
  }
  sched_ = std::make_unique<KubeShareSched>(cluster_, &sharepods_, &pool_,
                                            config_);
  devmgr_ = std::make_unique<KubeShareDevMgr>(cluster_, &sharepods_, &pool_,
                                              config_);
}

Status KubeShare::Start() {
  if (started_) return FailedPreconditionError("KubeShare already started");
  started_ = true;
  if (config_.enable_leader_election) {
    k8s::LeaderElectorConfig lec;
    lec.lease_name = "kubeshare-controller";
    lec.identity = "kubeshare-0";
    elector_ =
        std::make_unique<k8s::LeaderElector>(&cluster_->api(), std::move(lec));
    // A win must fence BOTH stores the controllers write through: the
    // sharePod custom resource and the native pods they create/delete.
    elector_->RegisterGate(&sharepods_.fencing());
    elector_->RegisterGate(&cluster_->api().pods().fencing());
    // The controllers stamp whatever token the elector last won. A deposed
    // leader that does not know it lost keeps stamping its stale token —
    // and the raised gate rejects those writes, which is the guarantee.
    auto token = [e = elector_.get()] { return e->fencing_token(); };
    sched_->SetFencingTokenProvider(token);
    devmgr_->SetFencingTokenProvider(token);
    elector_->Start();
  }
  KS_RETURN_IF_ERROR(sched_->Start());
  KS_RETURN_IF_ERROR(devmgr_->Start());
  // Close the isolation-enforcement loop: each node's token backend can
  // report a repeat offender (violation ledger past its eviction
  // threshold) and DevMgr evicts the offender's sharePod. The hook is a
  // no-op unless BackendConfig::enforcement is enabled — the backend never
  // calls it otherwise.
  for (std::size_t i = 0; i < cluster_->node_count(); ++i) {
    k8s::Cluster::NodeHandle& node = cluster_->node(i);
    node.token_backend->SetEvictionFn(
        [this, name = node.name](const ContainerId& container,
                                 const std::string& reason) {
          devmgr_->EvictTenant(name, container, reason);
        });
  }
  return Status::Ok();
}

Status KubeShare::CreateSharePod(SharePod pod) {
  KS_RETURN_IF_ERROR(pod.spec.gpu.Validate());
  if (pod.meta.name.empty()) {
    return InvalidArgumentError("sharePod has no name");
  }
  return sharepods_.Create(std::move(pod));
}

Status KubeShare::ResizeSharePod(const std::string& name, double gpu_request,
                                 double gpu_limit) {
  auto sp = sharepods_.Get(name);
  if (!sp.ok()) return sp.status();
  if (sp->terminal()) {
    return FailedPreconditionError("sharePod is terminal: " + name);
  }
  if (!sp->scheduled()) {
    // Not placed yet: just rewrite the spec; Algorithm 1 will see it.
    SharePod updated = *sp;
    updated.spec.gpu.gpu_request = gpu_request;
    updated.spec.gpu.gpu_limit = gpu_limit;
    KS_RETURN_IF_ERROR(updated.spec.gpu.Validate());
    return sharepods_.Update(updated);
  }

  KS_RETURN_IF_ERROR(pool_.UpdateAttachment(name, gpu_request, gpu_limit));
  SharePod updated = *sp;
  updated.spec.gpu.gpu_request = gpu_request;
  updated.spec.gpu.gpu_limit = gpu_limit;
  KS_RETURN_IF_ERROR(sharepods_.Update(updated));

  // Propagate to the running container's device library, if it is up.
  auto device = pool_.Get(updated.spec.gpu_id);
  if (device.ok() && device->uuid.has_value() &&
      !updated.status.workload_pod.empty()) {
    if (k8s::Cluster::NodeHandle* node = cluster_->FindNode(device->node)) {
      if (auto cid = node->runtime->ContainerIdOf(updated.status.workload_pod)) {
        vgpu::ResourceSpec spec = updated.spec.gpu;
        (void)node->token_backend->UpdateSpec(*cid, spec);
      }
    }
  }
  cluster_->api().events().Record(
      "kubeshare", "sharepod/" + name, "Resized",
      "gpu_request=" + std::to_string(gpu_request) +
          " gpu_limit=" + std::to_string(gpu_limit));
  return Status::Ok();
}

Status KubeShare::CreateSharePodGroup(std::vector<SharePod> pods) {
  if (pods.empty()) return InvalidArgumentError("empty sharePod group");
  for (const SharePod& pod : pods) {
    KS_RETURN_IF_ERROR(pod.spec.gpu.Validate());
    if (pod.meta.name.empty()) {
      return InvalidArgumentError("sharePod has no name");
    }
    if (sharepods_.Contains(pod.meta.name)) {
      return AlreadyExistsError("sharePod exists: " + pod.meta.name);
    }
  }

  // Dry run: place every member on a copy of the pool, consuming the
  // physical-GPU supply as the copy grows.
  VgpuPool dry_run = pool_;
  auto supply = sched_->FreePhysicalGpus();
  std::map<std::string, std::size_t> base_count;
  for (const NodeFreeGpus& n : supply) {
    base_count[n.node] = pool_.CountOnNode(n.node);
  }
  for (const SharePod& pod : pods) {
    std::vector<NodeFreeGpus> adjusted = supply;
    for (NodeFreeGpus& n : adjusted) {
      n.free -= static_cast<int>(dry_run.CountOnNode(n.node) -
                                 base_count[n.node]);
    }
    ScheduleRequest request;
    request.sharepod = pod.meta.name;
    request.gpu = pod.spec.gpu;
    request.locality = pod.spec.locality;
    request.node_constraint = pod.spec.node_name;
    auto placed = ScheduleSharePod(dry_run, request, adjusted,
                                   config_.placement);
    if (!placed.ok()) {
      return Status(placed.status().code(),
                    "gang admission failed at member " + pod.meta.name +
                        ": " + placed.status().message());
    }
  }

  for (SharePod& pod : pods) {
    KS_RETURN_IF_ERROR(sharepods_.Create(std::move(pod)));
  }
  return Status::Ok();
}

std::optional<KubeShare::Binding> KubeShare::ParseBinding(
    const std::map<std::string, std::string>& env) {
  auto name = env.find(kEnvSharePod);
  if (name == env.end()) return std::nullopt;
  Binding binding;
  binding.sharepod = name->second;
  if (auto it = env.find(kEnvGpuId); it != env.end()) {
    binding.gpu_id = GpuId(it->second);
  }
  auto parse = [&env](const char* key, double fallback) {
    auto it = env.find(key);
    if (it == env.end()) return fallback;
    return std::strtod(it->second.c_str(), nullptr);
  };
  binding.spec.gpu_request = parse(kEnvGpuRequest, 0.0);
  binding.spec.gpu_limit = parse(kEnvGpuLimit, 1.0);
  binding.spec.gpu_mem = parse(kEnvGpuMem, 1.0);
  binding.spec.slice_groups =
      static_cast<int>(parse(kEnvSliceGroups, 0.0));
  return binding;
}

}  // namespace ks::kubeshare
