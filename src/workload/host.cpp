#include "workload/host.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace ks::workload {

WorkloadHost::WorkloadHost(k8s::Cluster* cluster) : cluster_(cluster) {
  assert(cluster_ != nullptr);
  cluster_->SetContainerStartHook(
      [this](const k8s::ContainerInstance& inst) { OnContainerStart(inst); });
  cluster_->SetContainerStopHook(
      [this](const k8s::ContainerInstance& inst) { OnContainerStop(inst); });
}

const vgpu::SwapManager* WorkloadHost::SwapFor(const GpuUuid& uuid) const {
  auto it = swaps_.find(uuid);
  return it == swaps_.end() ? nullptr : it->second.get();
}

void WorkloadHost::ExpectJob(const std::string& name, JobFactory factory) {
  factories_[name] = std::move(factory);
  records_[name].submitted = cluster_->sim().Now();
}

std::string WorkloadHost::JobNameFor(const k8s::ContainerInstance& inst) {
  auto it = inst.env.find(kubeshare::kEnvSharePod);
  if (it != inst.env.end()) return it->second;
  return inst.pod_name;
}

void WorkloadHost::OnContainerStart(const k8s::ContainerInstance& inst) {
  const std::string job_name = JobNameFor(inst);
  auto fit = factories_.find(job_name);
  if (fit == factories_.end()) return;  // not one of ours (acquisition pods)
  if (inst.visible_gpus.empty()) {
    KS_LOG(kError) << "container " << inst.pod_name << " has no GPU";
    FinishJob(job_name, false);
    (void)cluster_->ExitPodContainer(inst.pod_name, false);
    return;
  }

  auto stack = std::make_shared<Stack>();
  stack->job_name = job_name;
  gpu::GpuDevice* device = inst.visible_gpus.front();
  stack->ctx = std::make_unique<cuda::CudaContext>(device, inst.id);
  cuda::CudaApi* api = stack->ctx.get();

  // Install the vGPU device library when DevMgr configured one; otherwise
  // offer the container to the registered baseline decorator.
  if (auto binding = kubeshare::KubeShare::ParseBinding(inst.env)) {
    vgpu::TokenBackend* backend = cluster_->BackendForGpu(device->uuid());
    assert(backend != nullptr);
    if (cluster_->config().spatial.enabled && binding->spec.slice_groups > 0) {
      // Pin the container's kernels and memory to its MIG-style slice
      // before any CUDA call runs; torn down on container stop.
      device->SetSliceAssignment(inst.id, binding->spec.slice_groups,
                                 cluster_->config().spatial.sm_groups);
      stack->sliced_device = device;
      stack->container_id = inst.id;
    }
    stack->hook = std::make_unique<vgpu::FrontendHook>(
        stack->ctx.get(), backend, inst.id, device->uuid(), binding->spec,
        device->spec().memory_bytes);
    const vgpu::OversubscriptionConfig& oversub = cluster_->config().oversub;
    if (oversub.enabled) {
      auto& swap = swaps_[device->uuid()];
      if (swap == nullptr) {
        swap = std::make_unique<vgpu::SwapManager>(device->spec().memory_bytes,
                                                   oversub.swap);
      }
      stack->hook->EnableMemoryOvercommit(swap.get(), &cluster_->sim());
    }
    api = stack->hook.get();
  } else if (decorator_) {
    stack->custom_hook = decorator_(stack->ctx.get(), inst, device);
    if (stack->custom_hook != nullptr) api = stack->custom_hook.get();
  }

  stack->job = fit->second();
  if (auto stale = active_.find(inst.pod_name); stale != active_.end()) {
    // The pod's previous container died without a stop notification (hard
    // node crash kills the kubelet before it can report): unwind the stale
    // stack the way OnContainerStop would, or its job's pending timers
    // would fire into freed memory once we overwrite the entry.
    std::shared_ptr<Stack> old = std::move(stale->second);
    old->job->Stop();
    if (old->sliced_device != nullptr) {
      old->sliced_device->ClearSliceAssignment(old->container_id);
      old->sliced_device = nullptr;
    }
    cluster_->sim().ScheduleAfter(Duration{0},
                                  [old]() mutable { old.reset(); });
  }
  active_[inst.pod_name] = stack;

  JobRecord& rec = records_[job_name];
  if (rec.has_finished && !rec.success) {
    // A requeued sharePod relaunched after an infrastructure kill (node
    // crash, OOM): reopen the record so the retry's outcome replaces the
    // provisional failure recorded when the first container died.
    rec.has_finished = false;
    ++rec.restarts;
    --failed_;
    ++restarts_;
  }
  rec.started = cluster_->sim().Now();
  rec.has_started = true;
  ++started_;

  const std::string pod_name = inst.pod_name;
  stack->job->Start(api, &cluster_->sim(), [this, job_name,
                                            pod_name](bool success) {
    FinishJob(job_name, success);
    // Exiting tears the container down, which unwinds this stack through
    // OnContainerStop (with deferred destruction).
    (void)cluster_->ExitPodContainer(pod_name, success);
  });
}

void WorkloadHost::OnContainerStop(const k8s::ContainerInstance& inst) {
  auto it = active_.find(inst.pod_name);
  if (it == active_.end()) return;
  std::shared_ptr<Stack> stack = std::move(it->second);
  active_.erase(it);
  stack->job->Stop();
  if (stack->sliced_device != nullptr) {
    // In-flight sliced kernels still retire (the stack's teardown detaches
    // their callbacks); the slice itself frees for the next tenant now.
    stack->sliced_device->ClearSliceAssignment(stack->container_id);
    stack->sliced_device = nullptr;
  }
  // A kill while the job was still running counts as a failure.
  FinishJob(stack->job_name, false);
  // The stop notification can arrive from inside the stack's own kernel
  // completion path; destroying it here would free objects still on the
  // call stack. Defer destruction to the next event.
  cluster_->sim().ScheduleAfter(Duration{0}, [stack]() mutable {
    stack.reset();
  });
}

void WorkloadHost::FinishJob(const std::string& job_name, bool success) {
  auto it = records_.find(job_name);
  if (it == records_.end()) return;
  JobRecord& rec = it->second;
  if (rec.has_finished) return;  // completion already recorded
  rec.has_finished = true;
  rec.finished = cluster_->sim().Now();
  rec.success = success;
  if (success) {
    ++completed_;
    completion_times_.push_back(rec.finished);
  } else {
    ++failed_;
  }
}

const WorkloadHost::JobRecord* WorkloadHost::RecordOf(
    const std::string& name) const {
  auto it = records_.find(name);
  return it == records_.end() ? nullptr : &it->second;
}

const vgpu::FrontendHook* WorkloadHost::RunningHook(
    const std::string& name) const {
  for (const auto& [pod, stack] : active_) {
    if (stack->job_name == name) return stack->hook.get();
  }
  return nullptr;
}

vgpu::FrontendHook* WorkloadHost::MutableRunningHook(const std::string& name) {
  for (auto& [pod, stack] : active_) {
    if (stack->job_name == name) return stack->hook.get();
  }
  return nullptr;
}

std::vector<std::string> WorkloadHost::RunningKubeShareJobs() const {
  std::vector<std::string> names;
  for (const auto& [pod, stack] : active_) {
    if (stack->hook != nullptr) names.push_back(stack->job_name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Job* WorkloadHost::RunningJob(const std::string& name) {
  for (auto& [pod, stack] : active_) {
    if (stack->job_name == name) return stack->job.get();
  }
  return nullptr;
}

}  // namespace ks::workload
