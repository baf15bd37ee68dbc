#include "kubeshare/devmgr.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <vector>

#include "common/log.hpp"
#include "k8s/device_plugin.hpp"
#include "k8s/resources.hpp"

namespace ks::kubeshare {

namespace {
std::string FormatFraction(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// Recovers the N out of counter-derived names ("kubeshare-vgpu-N",
/// "vgpu-N") so a rebuilt controller can resume its counters past every id
/// already persisted at the apiserver. 0 when the tail is not a number.
std::uint64_t TrailingNumber(const std::string& name) {
  const auto pos = name.find_last_of('-');
  if (pos == std::string::npos || pos + 1 >= name.size()) return 0;
  char* end = nullptr;
  const unsigned long long n =
      std::strtoull(name.c_str() + pos + 1, &end, 10);
  if (end == nullptr || *end != '\0') return 0;
  return static_cast<std::uint64_t>(n);
}
}  // namespace

KubeShareDevMgr::KubeShareDevMgr(k8s::Cluster* cluster,
                                 k8s::ObjectStore<SharePod>* sharepods,
                                 VgpuPool* pool, KubeShareConfig config)
    : cluster_(cluster),
      sharepods_(sharepods),
      pool_(pool),
      config_(config) {
  assert(cluster_ != nullptr && sharepods_ != nullptr && pool_ != nullptr);
}

Status KubeShareDevMgr::Start() {
  if (started_) return FailedPreconditionError("KubeShare-DevMgr started");
  started_ = true;
  sharepod_watch_ = sharepods_->Watch(
      [this](const k8s::WatchEvent<SharePod>& ev) { OnSharePodEvent(ev); });
  pod_watch_ = cluster_->api().pods().Watch(
      [this](const k8s::WatchEvent<k8s::Pod>& ev) { OnPodEvent(ev); });
  if (config_.reconcile_period.count() > 0) ScheduleReconcile();
  return Status::Ok();
}

void KubeShareDevMgr::Crash() {
  if (!started_) return;
  started_ = false;
  ++crashes_;
  ++epoch_;
  sharepods_->Unwatch(sharepod_watch_);
  cluster_->api().pods().Unwatch(pod_watch_);
  sharepod_watch_ = 0;
  pod_watch_ = 0;
  records_.clear();
  acquisition_pods_.clear();
  acquisition_owner_.clear();
  workload_owner_.clear();
  pool_->Clear();
}

Status KubeShareDevMgr::Restart() {
  if (started_) return FailedPreconditionError("KubeShare-DevMgr running");
  KS_RETURN_IF_ERROR(RebuildFromApiServer());
  return Start();
}

void KubeShareDevMgr::SetFencingTokenProvider(
    std::function<std::uint64_t()> provider) {
  token_provider_ = std::move(provider);
}

std::uint64_t KubeShareDevMgr::Token() const {
  return token_provider_ ? token_provider_() : 0;
}

void KubeShareDevMgr::ScheduleReconcile() {
  // Perpetual resync loop — callers running with reconcile enabled drive
  // the simulation with RunUntil (Run() would never drain the queue).
  const std::uint64_t epoch = epoch_;
  cluster_->sim().ScheduleAfter(config_.reconcile_period, [this, epoch] {
    if (epoch != epoch_) return;  // DevMgr crashed meanwhile
    ReconcileOnce();
    ScheduleReconcile();
  });
}

void KubeShareDevMgr::ScheduleLaunch(const std::string& name) {
  // The vGPU info query (GPUID -> UUID translation through the apiserver)
  // before the workload pod can be created.
  const std::uint64_t epoch = epoch_;
  cluster_->sim().ScheduleAfter(config_.devmgr_query, [this, name, epoch] {
    if (epoch != epoch_) return;  // DevMgr crashed meanwhile
    LaunchWorkloadPod(name);
  });
}

Status KubeShareDevMgr::RebuildFromApiServer() {
  ++rebuilds_;
  rebuilt_vgpus_ = 0;
  rebuilt_records_ = 0;

  // Phase 1: acquisition pods. Each non-terminal one holds a physical GPU
  // for the GPUID in its label; its node selector names the node and — once
  // Running — its effective environment carries the device UUID the plugin
  // injected. That triple is the entire GPUID<->UUID mapping, durable at
  // the apiserver, which is what makes the in-memory pool reconstructible.
  for (const k8s::Pod& pod : cluster_->api().pods().List()) {
    auto role = pod.meta.labels.find(kRoleLabel);
    if (role == pod.meta.labels.end() || role->second != kRoleAcquisition) {
      continue;
    }
    next_acq_ = std::max(next_acq_, TrailingNumber(pod.meta.name) + 1);
    if (pod.terminal()) continue;  // acquisition failed; nothing to hold
    auto idl = pod.meta.labels.find(kGpuIdLabel);
    if (idl == pod.meta.labels.end()) continue;
    const GpuId id(idl->second);
    std::string node = pod.status.node_name;
    if (auto sel = pod.spec.node_selector.find("kubernetes.io/hostname");
        sel != pod.spec.node_selector.end()) {
      node = sel->second;
    }
    if (!pool_->Contains(id)) {
      KS_RETURN_IF_ERROR(pool_->CreateWithId(id, node).status());
      ++rebuilt_vgpus_;
    }
    pool_->EnsureNextIdAtLeast(TrailingNumber(id.value()) + 1);
    acquisition_pods_[id] = pod.meta.name;
    acquisition_owner_[pod.meta.name] = id;
    VgpuInfo* dev = pool_->Find(id);
    if (dev != nullptr && !dev->uuid.has_value() &&
        pod.status.phase == k8s::PodPhase::kRunning) {
      auto env = pod.status.effective_env.find(k8s::kNvidiaVisibleDevices);
      if (env != pod.status.effective_env.end()) {
        KS_RETURN_IF_ERROR(pool_->Activate(id, GpuUuid(env->second)));
      }
    }
  }

  // Phase 2: scheduled sharePods, in List()'s name order (deterministic
  // rebuild order). Re-attach each to its recorded device and re-adopt the
  // workload pod when one is live; otherwise resume the lifecycle where it
  // stopped — query+launch if the UUID is known, (re-)acquire if not.
  for (const SharePod& sp : sharepods_->List()) {
    if (sp.terminal() || !sp.scheduled()) continue;
    const std::string name = sp.meta.name;
    if (records_.count(name) > 0) continue;
    if (!pool_->Contains(sp.spec.gpu_id)) {
      if (sp.spec.node_name.empty()) {
        Requeue(name, "rebuild: scheduled without a node");
        continue;
      }
      // No acquisition pod survived for this GPUID (crash hit between the
      // spec write and EnsureVgpu); re-create the entry, the acquisition
      // restarts below.
      KS_RETURN_IF_ERROR(
          pool_->CreateWithId(sp.spec.gpu_id, sp.spec.node_name).status());
      pool_->EnsureNextIdAtLeast(TrailingNumber(sp.spec.gpu_id.value()) + 1);
      ++rebuilt_vgpus_;
    }
    if (pool_->DeviceOf(name) != sp.spec.gpu_id) {
      // Pinning the recorded slice_offset keeps the rebuilt occupancy
      // byte-equal to the pre-crash pool regardless of reattach order.
      const Status attached =
          pool_->Attach(sp.spec.gpu_id, name, sp.spec.gpu, sp.spec.locality,
                        sp.spec.slice_offset);
      if (!attached.ok()) {
        // The placement no longer fits (the scheduler over-committed the
        // device while the pool was dark). Infrastructure's fault, not the
        // job's: send it back through KubeShare-Sched.
        Requeue(name, "rebuild: " + attached.message());
        continue;
      }
    }

    SharePodRec rec;
    rec.device = sp.spec.gpu_id;
    const std::string& workload = sp.status.workload_pod;
    bool launch = false;
    if (!workload.empty() && cluster_->api().pods().Contains(workload)) {
      rec.workload_pod = workload;
      workload_owner_[workload] = name;
      auto pod = cluster_->api().pods().Get(workload);
      // Terminal pods adopt as kRunning; the reconcile pass repairs them
      // into Finish/Requeue exactly as it repairs a dropped watch event.
      rec.state = pod->status.phase == k8s::PodPhase::kPending
                      ? RecState::kLaunching
                      : RecState::kRunning;
    } else {
      VgpuInfo* dev = pool_->Find(sp.spec.gpu_id);
      if (dev != nullptr && dev->uuid.has_value()) {
        rec.state = RecState::kLaunching;
        launch = true;
      } else {
        rec.state = RecState::kAwaitingVgpu;
      }
    }
    records_.emplace(name, rec);
    ++rebuilt_records_;
    if (launch) ScheduleLaunch(name);
    EnsureVgpu(sp.spec.gpu_id);  // no-op when already acquiring/active
  }

  // Phase 3: orphaned workload pods — live containers holding a device
  // with no non-terminal sharePod owning them (the sharePod finished or
  // was deleted during the downtime). Stop them; nothing will.
  std::vector<std::string> orphans;
  // Read-only scan (deletes happen after), so ForEach avoids List()'s full
  // copy of every pod. Phases 1/2 mutate stores mid-loop and keep List().
  cluster_->api().pods().ForEach([&](const k8s::Pod& pod) {
    auto role = pod.meta.labels.find(kRoleLabel);
    if (role == pod.meta.labels.end() || role->second != kRoleWorkload) {
      return;
    }
    if (pod.terminal()) return;
    if (workload_owner_.count(pod.meta.name) > 0) return;
    orphans.push_back(pod.meta.name);
  });
  for (const std::string& name : orphans) {
    (void)cluster_->api().pods().Delete(name, 0, Token());
  }

  // Phase 4: vGPUs nobody is attached to follow the pool policy, exactly
  // as if their last detach had just happened — on-demand releases them
  // (and their acquisition pods) back to Kubernetes, reservation keeps
  // them warm. No orphaned vGPU survives the rebuild unaccounted. Collect
  // first: a release removes the entry from the pool being scanned.
  std::vector<GpuId> idle;
  for (const VgpuInfo* dev : pool_->List()) {
    if (dev->idle()) idle.push_back(dev->id);
  }
  for (const GpuId& id : idle) MaybeReleaseVgpu(id);

  cluster_->api().events().Record(
      "kubeshare-devmgr", "devmgr", "Rebuilt",
      std::to_string(rebuilt_vgpus_) + " vGPUs, " +
          std::to_string(rebuilt_records_) + " records from apiserver");
  return pool_->CheckIndexInvariants();
}

void KubeShareDevMgr::OnSharePodEvent(const k8s::WatchEvent<SharePod>& event) {
  if (event.type == k8s::WatchEventType::kDeleted) {
    TearDown(event.object.meta.name);
    return;
  }
  // Reconcile against the store's *current* state, not the event payload:
  // watch events are delivered with a delay, so a stale Modified event can
  // trail a teardown — acting on its snapshot would resurrect a finished
  // sharePod (re-acquiring a GPU for nobody).
  auto pod = sharepods_->Get(event.object.meta.name);
  if (!pod.ok() || pod->terminal() || !pod->scheduled()) return;
  if (records_.count(pod->meta.name) > 0) return;  // already handled
  HandleScheduled(*pod);
}

Status KubeShareDevMgr::EnsureAttached(const SharePod& pod) {
  if (pool_->DeviceOf(pod.meta.name) == pod.spec.gpu_id) return Status::Ok();
  // User-pinned GPUID: the vGPU may not exist yet. Creating it requires
  // knowing the node; that is part of the first-class contract (Script 1
  // carries both GPUID and nodeName).
  if (!pool_->Contains(pod.spec.gpu_id)) {
    if (pod.spec.node_name.empty()) {
      return InvalidArgumentError(
          "pinned GPUID with no nodeName: " + pod.spec.gpu_id.value());
    }
    KS_RETURN_IF_ERROR(
        pool_->CreateWithId(pod.spec.gpu_id, pod.spec.node_name).status());
  }
  return pool_->Attach(pod.spec.gpu_id, pod.meta.name, pod.spec.gpu,
                       pod.spec.locality, pod.spec.slice_offset);
}

void KubeShareDevMgr::HandleScheduled(const SharePod& pod) {
  const std::string name = pod.meta.name;
  const Status attached = EnsureAttached(pod);
  if (!attached.ok()) {
    SetSharePodPhase(name, SharePodPhase::kRejected, attached.ToString());
    return;
  }

  SharePodRec rec;
  rec.device = pod.spec.gpu_id;
  records_.emplace(name, rec);

  VgpuInfo* dev = pool_->Find(pod.spec.gpu_id);
  assert(dev != nullptr);
  if (dev->uuid.has_value()) {
    records_.at(name).state = RecState::kLaunching;
    ScheduleLaunch(name);
  } else {
    EnsureVgpu(pod.spec.gpu_id);  // workload launches on activation
  }
  SetSharePodPhase(name, SharePodPhase::kScheduled);
}

void KubeShareDevMgr::EnsureVgpu(const GpuId& id) {
  if (acquisition_pods_.count(id) > 0) return;  // already acquiring
  VgpuInfo* dev = pool_->Find(id);
  if (dev == nullptr || dev->uuid.has_value()) return;

  // "The sole purpose of this pod is to allocate the GPU without running
  // any workload" (§4.4).
  k8s::Pod acq;
  acq.meta.name = "kubeshare-vgpu-" + std::to_string(next_acq_++);
  acq.meta.labels[kManagedLabel] = "true";
  acq.meta.labels[kRoleLabel] = kRoleAcquisition;
  // The GPUID this pod holds a physical GPU for — the durable half of the
  // pool's GPUID<->UUID mapping that RebuildFromApiServer reads back.
  acq.meta.labels[kGpuIdLabel] = id.value();
  acq.spec.image = "kubeshare/pause:latest";
  acq.spec.requests.Set(k8s::kResourceNvidiaGpu, 1);
  acq.spec.node_selector["kubernetes.io/hostname"] = dev->node;
  const Status created = cluster_->api().pods().Create(acq, Token());
  if (!created.ok()) {
    KS_LOG(kError) << "acquisition pod create failed: " << created;
    return;
  }
  ++vgpus_created_;
  acquisition_pods_[id] = acq.meta.name;
  acquisition_owner_[acq.meta.name] = id;
  cluster_->api().events().Record("kubeshare-devmgr", "vgpu/" + id.value(),
                                  "Acquiring", "via pod " + acq.meta.name +
                                                   " on " + dev->node);
}

Expected<GpuId> KubeShareDevMgr::ReserveVgpu(const std::string& node) {
  VgpuInfo& dev = pool_->Create(node);
  EnsureVgpu(dev.id);
  return dev.id;
}

void KubeShareDevMgr::ActivateVgpuFromPod(const GpuId& id,
                                          const k8s::Pod& pod) {
  VgpuInfo* dev = pool_->Find(id);
  if (dev == nullptr || dev->uuid.has_value()) return;
  auto env = pod.status.effective_env.find(k8s::kNvidiaVisibleDevices);
  if (env == pod.status.effective_env.end()) {
    KS_LOG(kError) << "acquisition pod has no visible devices";
    return;
  }
  (void)pool_->Activate(id, GpuUuid(env->second));
  cluster_->api().events().Record("kubeshare-devmgr", "vgpu/" + id.value(),
                                  "Activated", "UUID " + env->second);
  // Launch every sharePod that was waiting on this vGPU.
  for (const std::string& name : pool_->Find(id)->attached) {
    auto rit = records_.find(name);
    if (rit == records_.end() ||
        rit->second.state != RecState::kAwaitingVgpu) {
      continue;
    }
    rit->second.state = RecState::kLaunching;
    ScheduleLaunch(name);
  }
  // An idle reservation stays idle until someone attaches.
}

void KubeShareDevMgr::LaunchWorkloadPod(const std::string& sharepod_name) {
  auto it = records_.find(sharepod_name);
  if (it == records_.end()) return;  // torn down meanwhile
  auto sp = sharepods_->Get(sharepod_name);
  if (!sp.ok() || sp->terminal()) return;
  VgpuInfo* dev = pool_->Find(it->second.device);
  if (dev == nullptr || !dev->uuid.has_value()) return;

  k8s::Pod pod;
  pod.meta.name = sharepod_name + "-pod";
  pod.meta.labels[kManagedLabel] = "true";
  pod.meta.labels[kRoleLabel] = kRoleWorkload;
  pod.spec = sp->spec.pod;
  // The sharePod must not also request whole GPUs from the plugin.
  pod.spec.requests.Set(k8s::kResourceNvidiaGpu, 0);
  // Explicit binding: DevMgr chooses the node (and thereby the exact GPU),
  // bypassing kube-scheduler (§4.4).
  pod.status.node_name = dev->node;
  // Device attachment + device-library configuration via environment.
  pod.spec.env[k8s::kNvidiaVisibleDevices] = dev->uuid->value();
  pod.spec.env[kEnvSharePod] = sharepod_name;
  pod.spec.env[kEnvGpuId] = dev->id.value();
  pod.spec.env[kEnvGpuRequest] = FormatFraction(sp->spec.gpu.gpu_request);
  pod.spec.env[kEnvGpuLimit] = FormatFraction(sp->spec.gpu.gpu_limit);
  pod.spec.env[kEnvGpuMem] = FormatFraction(sp->spec.gpu.gpu_mem);
  if (sp->spec.gpu.slice_groups > 0) {
    pod.spec.env[kEnvSliceGroups] =
        std::to_string(sp->spec.gpu.slice_groups);
    if (auto slice = pool_->SliceOf(sharepod_name)) {
      pod.meta.labels[kSliceLabel] = std::to_string(slice->first) + "-" +
                                     std::to_string(slice->second);
    }
  }

  const Status created = cluster_->api().pods().Create(pod, Token());
  if (!created.ok()) {
    SetSharePodPhase(sharepod_name, SharePodPhase::kFailed,
                     "workload pod creation failed: " + created.ToString());
    return;
  }
  ++workload_launched_;
  it->second.state = RecState::kLaunching;
  it->second.workload_pod = pod.meta.name;
  workload_owner_[pod.meta.name] = sharepod_name;

  (void)k8s::RetryOnConflict(
      *sharepods_, sharepod_name,
      [&](SharePod& sp) {
        sp.status.workload_pod = pod.meta.name;
        return Status::Ok();
      },
      Token());
}

void KubeShareDevMgr::OnPodEvent(const k8s::WatchEvent<k8s::Pod>& event) {
  const k8s::Pod& pod = event.object;

  // --- Acquisition pods ------------------------------------------------
  if (auto ait = acquisition_owner_.find(pod.meta.name);
      ait != acquisition_owner_.end()) {
    const GpuId vgpu = ait->second;
    if (event.type == k8s::WatchEventType::kDeleted) {
      // A release we initiated erases the owner map first; reaching here
      // means someone ELSE deleted the pod that holds this vGPU's physical
      // GPU. The binding (UUID) is gone — fail the attached sharePods and
      // drop the vGPU rather than run containers on a device Kubernetes
      // may hand to someone else.
      acquisition_owner_.erase(ait);
      acquisition_pods_.erase(vgpu);
      cluster_->api().events().Record(
          "kubeshare-devmgr", "vgpu/" + vgpu.value(), "Lost",
          "acquisition pod deleted externally");
      VgpuInfo* dev = pool_->Find(vgpu);
      if (dev != nullptr) {
        const auto attached = dev->attached;  // copy: FinishSharePod mutates
        for (const std::string& name : attached) {
          FinishSharePod(name, SharePodPhase::kFailed,
                         "vGPU lost: acquisition pod deleted");
        }
      }
      if (pool_->Contains(vgpu)) {
        (void)pool_->Remove(vgpu);
        ++vgpus_released_;
      }
      return;
    }
    if (pod.status.phase == k8s::PodPhase::kRunning) {
      ActivateVgpuFromPod(vgpu, pod);
    } else if (pod.status.phase == k8s::PodPhase::kFailed) {
      if (pod.status.message == "NodeLost" ||
          pod.status.message == "OOMKilled") {
        // Infrastructure killed the acquisition pod (node loss, kernel
        // OOM); the GPUID<->UUID binding died with it. Recoverable:
        // reclaim the vGPU and let the sharePods be placed elsewhere.
        ReclaimVgpu(vgpu, "acquisition pod killed: " + pod.status.message);
        return;
      }
      // The node had no free GPU after all; fail the attached sharePods.
      VgpuInfo* dev = pool_->Find(vgpu);
      if (dev != nullptr) {
        const auto attached = dev->attached;  // copy: FinishSharePod mutates
        for (const std::string& name : attached) {
          FinishSharePod(name, SharePodPhase::kFailed,
                         "vGPU acquisition failed");
        }
      }
    }
    return;
  }

  // --- Workload pods ---------------------------------------------------
  auto wit = workload_owner_.find(pod.meta.name);
  if (wit == workload_owner_.end()) return;
  const std::string sharepod_name = wit->second;
  if (event.type == k8s::WatchEventType::kDeleted) return;

  switch (pod.status.phase) {
    case k8s::PodPhase::kRunning: {
      auto rit = records_.find(sharepod_name);
      if (rit != records_.end() && rit->second.state == RecState::kLaunching) {
        rit->second.state = RecState::kRunning;
        (void)k8s::RetryOnConflict(
            *sharepods_, sharepod_name,
            [&](SharePod& sp) {
              if (sp.terminal()) {
                return FailedPreconditionError("sharePod terminal");
              }
              sp.status.phase = SharePodPhase::kRunning;
              sp.status.running_time = cluster_->sim().Now();
              return Status::Ok();
            },
            Token());
        // The container registered the limits DevMgr wrote into the pod's
        // env at launch; a resize that landed before it started (and found
        // no container to tell) reaches the daemon now.
        auto sp = sharepods_->Get(sharepod_name);
        const auto launched = [&pod](const char* key, double value) {
          const auto env = pod.spec.env.find(key);
          return env != pod.spec.env.end() &&
                 env->second == FormatFraction(value);
        };
        auto* node = cluster_->FindNode(pod.status.node_name);
        const auto cid = node ? node->runtime->ContainerIdOf(pod.meta.name)
                              : std::nullopt;
        if (sp.ok() && cid &&
            !(launched(kEnvGpuRequest, sp->spec.gpu.gpu_request) &&
              launched(kEnvGpuLimit, sp->spec.gpu.gpu_limit))) {
          (void)node->token_backend->UpdateSpec(*cid, sp->spec.gpu);
        }
      }
      return;
    }
    case k8s::PodPhase::kSucceeded:
      FinishSharePod(sharepod_name, SharePodPhase::kSucceeded);
      return;
    case k8s::PodPhase::kFailed:
      OnWorkloadPodFailed(sharepod_name, pod.status.message);
      return;
    case k8s::PodPhase::kPending:
      return;
  }
}

void KubeShareDevMgr::OnWorkloadPodFailed(const std::string& sharepod_name,
                                          const std::string& message) {
  // Infrastructure kills are recoverable — the job did nothing wrong; send
  // it back through KubeShare-Sched. Application failures stay failures.
  if (message == "NodeLost" || message == "OOMKilled") {
    Requeue(sharepod_name, message);
    return;
  }
  FinishSharePod(sharepod_name, SharePodPhase::kFailed, message);
}

void KubeShareDevMgr::Requeue(const std::string& name,
                              const std::string& reason) {
  auto it = records_.find(name);
  if (it != records_.end()) {
    const std::string workload = it->second.workload_pod;
    records_.erase(it);
    if (!workload.empty()) {
      workload_owner_.erase(workload);
      // Delete the stale (terminal) pod object so the relaunch can reuse
      // the workload pod name.
      if (cluster_->api().pods().Contains(workload)) {
        (void)cluster_->api().pods().Delete(workload, 0, Token());
      }
    }
  }
  if (auto device = pool_->Detach(name); device.ok()) MaybeReleaseVgpu(*device);
  const Status s = k8s::RetryOnConflict(
      *sharepods_, name,
      [&](SharePod& sp) {
        if (sp.terminal()) return FailedPreconditionError("sharePod terminal");
        sp.spec.gpu_id = GpuId{};
        sp.spec.node_name.clear();
        sp.status.phase = SharePodPhase::kPending;
        sp.status.workload_pod.clear();
        sp.status.message = reason;
        return Status::Ok();
      },
      Token());
  if (!s.ok()) return;
  ++sharepods_requeued_;
  cluster_->api().events().Record("kubeshare-devmgr", "sharepod/" + name,
                                  "Requeued", reason);
}

void KubeShareDevMgr::ReclaimVgpu(const GpuId& id, const std::string& detail) {
  VgpuInfo* dev = pool_->Find(id);
  if (dev == nullptr) return;
  cluster_->api().events().Record("kubeshare-devmgr", "vgpu/" + id.value(),
                                  "Reclaimed", detail);
  const auto attached = dev->attached;  // copy: Requeue mutates via Detach
  for (const std::string& name : attached) Requeue(name, "NodeLost");
  if (auto ait = acquisition_pods_.find(id); ait != acquisition_pods_.end()) {
    acquisition_owner_.erase(ait->second);
    if (cluster_->api().pods().Contains(ait->second)) {
      (void)cluster_->api().pods().Delete(ait->second, 0, Token());
    }
    acquisition_pods_.erase(ait);
  }
  // Requeue -> Detach may already have released the now-idle vGPU (pool
  // policy); remove it ourselves otherwise. Either way it left the pool.
  if (pool_->Contains(id)) {
    (void)pool_->Remove(id);
    ++vgpus_released_;
  }
  ++vgpus_reclaimed_;
}

void KubeShareDevMgr::ReconcileOnce() {
  ++reconcile_passes_;
  // Pass 1: vGPUs stranded on NotReady nodes — the physical binding is
  // dead even if no pod event ever said so.
  std::vector<GpuId> dead;
  for (const VgpuInfo* dev : pool_->List()) {
    auto node = cluster_->api().nodes().Get(dev->node);
    if (node.ok() && !node->ready) dead.push_back(dev->id);
  }
  for (const GpuId& id : dead) ReclaimVgpu(id, "reconcile: node NotReady");

  // Pass 2: records whose workload pod reached a terminal phase without
  // the watch delivering it (dropped event). Sorted snapshot — records_
  // is an unordered_map and the repairs are observable.
  std::vector<std::string> names;
  names.reserve(records_.size());
  for (const auto& [name, rec] : records_) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    auto rit = records_.find(name);
    if (rit == records_.end()) continue;  // repaired by an earlier entry
    const std::string workload = rit->second.workload_pod;
    if (workload.empty()) continue;
    auto pod = cluster_->api().pods().Get(workload);
    if (!pod.ok()) continue;
    if (pod->status.phase == k8s::PodPhase::kSucceeded) {
      FinishSharePod(name, SharePodPhase::kSucceeded);
    } else if (pod->status.phase == k8s::PodPhase::kFailed) {
      OnWorkloadPodFailed(name, pod->status.message);
    }
  }

  // Pass 3: vGPUs whose acquisition pod reached Running without the watch
  // delivering it — the store holds the UUID but the pool entry is still
  // pending, stranding every attached sharePod. acquisition_pods_ is an
  // ordered map, so the repair order is deterministic.
  for (const auto& [id, pod_name] : acquisition_pods_) {
    const VgpuInfo* dev = pool_->Find(id);
    if (dev == nullptr || dev->uuid.has_value()) continue;
    auto pod = cluster_->api().pods().Get(pod_name);
    if (pod.ok() && pod->status.phase == k8s::PodPhase::kRunning) {
      ActivateVgpuFromPod(id, *pod);
    }
  }

  // Pass 4: scheduled sharePods the watch never delivered (dropped Add /
  // Modified). List() is sorted by name.
  for (const SharePod& sp : sharepods_->List()) {
    if (sp.terminal() || !sp.scheduled()) continue;
    if (records_.count(sp.meta.name) > 0) continue;
    HandleScheduled(sp);
  }
}

void KubeShareDevMgr::SetSharePodPhase(const std::string& name,
                                       SharePodPhase phase,
                                       const std::string& message) {
  (void)k8s::RetryOnConflict(
      *sharepods_, name,
      [&](SharePod& sp) {
        if (sp.terminal()) return FailedPreconditionError("sharePod terminal");
        sp.status.phase = phase;
        if (!message.empty()) sp.status.message = message;
        if (phase == SharePodPhase::kRunning) {
          sp.status.running_time = cluster_->sim().Now();
        }
        if (phase == SharePodPhase::kSucceeded ||
            phase == SharePodPhase::kFailed ||
            phase == SharePodPhase::kRejected) {
          sp.status.finished_time = cluster_->sim().Now();
        }
        return Status::Ok();
      },
      Token());
}

void KubeShareDevMgr::EvictTenant(const std::string& node,
                                  const ContainerId& container,
                                  const std::string& reason) {
  k8s::Cluster::NodeHandle* handle = cluster_->FindNode(node);
  if (handle == nullptr) return;
  // workload_owner_ is an ordered map, so a (pathological) double match
  // resolves deterministically to the lexicographically-first workload pod.
  for (const auto& [workload, sharepod] : workload_owner_) {
    const auto cid = handle->runtime->ContainerIdOf(workload);
    if (!cid.has_value() || !(*cid == container)) continue;
    // Copy before FinishSharePod: its TearDown erases this workload_owner_
    // node, which would free the string `sharepod` refers into.
    const std::string victim = sharepod;
    ++tenants_evicted_;
    cluster_->api().events().Record("kubeshare-devmgr",
                                    "sharepod/" + victim, "TenantEvicted",
                                    reason);
    FinishSharePod(victim, SharePodPhase::kFailed, "Evicted: " + reason);
    return;
  }
}

void KubeShareDevMgr::FinishSharePod(const std::string& name,
                                     SharePodPhase phase,
                                     const std::string& message) {
  SetSharePodPhase(name, phase, message);
  TearDown(name);
}

void KubeShareDevMgr::TearDown(const std::string& name) {
  auto it = records_.find(name);
  if (it == records_.end()) {
    // Not yet scheduled or already cleaned; still detach any reservation.
    if (auto dev = pool_->Detach(name); dev.ok()) MaybeReleaseVgpu(*dev);
    return;
  }
  const std::string workload = it->second.workload_pod;
  records_.erase(it);
  if (!workload.empty()) {
    workload_owner_.erase(workload);
    auto pod = cluster_->api().pods().Get(workload);
    if (pod.ok() && !pod->terminal()) {
      (void)cluster_->api().pods().Delete(workload, 0, Token());
    }
  }
  auto device = pool_->Detach(name);
  if (device.ok()) MaybeReleaseVgpu(*device);
}

void KubeShareDevMgr::MaybeReleaseVgpu(const GpuId& id) {
  VgpuInfo* dev = pool_->Find(id);
  if (dev == nullptr || !dev->attached.empty()) return;
  if (config_.pool_policy == PoolPolicy::kReservation) return;  // keep idle
  if (config_.pool_policy == PoolPolicy::kHybrid) {
    // Keep up to hybrid_reserve idle vGPUs warm; release beyond that.
    int idle = 0;
    for (const VgpuInfo* d : pool_->List()) {
      if (d->state == VgpuState::kIdle) ++idle;
    }
    if (idle <= config_.hybrid_reserve) return;
  }
  // On-demand: hand the physical GPU back to Kubernetes immediately.
  auto ait = acquisition_pods_.find(id);
  if (ait != acquisition_pods_.end()) {
    acquisition_owner_.erase(ait->second);
    (void)cluster_->api().pods().Delete(ait->second, 0, Token());
    acquisition_pods_.erase(ait);
  }
  (void)pool_->Remove(id);
  ++vgpus_released_;
  cluster_->api().events().Record("kubeshare-devmgr", "vgpu/" + id.value(),
                                  "Released",
                                  "returned physical GPU to Kubernetes");
}

}  // namespace ks::kubeshare
