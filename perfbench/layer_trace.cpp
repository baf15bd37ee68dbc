#include "layer_trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string_view>

namespace perfbench {

using namespace ks;

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

LayerTrace::LayerTrace(k8s::Cluster* cluster, kubeshare::KubeShare* kubeshare)
    : cluster_(cluster), kubeshare_(kubeshare), sim_(&cluster->sim()) {
  timers_pending_.assign(cluster_->node_count(), 0);
  for (std::size_t n = 0; n < cluster_->node_count(); ++n) {
    k8s::Cluster::NodeHandle& node = cluster_->node(n);
    for (const auto& dev : node.gpus) {
      dev->SetKernelTraceFn([this](const gpu::KernelTraceEvent&) {
        ++kernels_;
        Mark(kGpuDevice);
      });
    }
    node.token_backend->SetGrantTraceFn(
        [this, n](const char* what, const ContainerId& c, Time when) {
          OnGrantTrace(n, what, c, when);
        });
  }
  // Registered before any pod or sharePod exists, so no replay is queued;
  // every later delivery rides a watch-hub batch the controllers' own
  // watchers already armed, leaving the engine's event sequence unchanged.
  cluster_->api().pods().Watch([this](const k8s::WatchEvent<k8s::Pod>& e) {
    ++own_pod_deliveries_;
    Mark(kK8sStore);
    OnPod(e.object);
  });
  kubeshare_->sharepods().Watch(
      [this](const k8s::WatchEvent<kubeshare::SharePod>& e) {
        ++own_sharepod_deliveries_;
        Mark(kK8sStore);
        OnSharePod(e.object, e.type == k8s::WatchEventType::kDeleted);
      });
}

void LayerTrace::RunUntil(Time t) {
  for (;;) {
    const std::optional<Time> next = sim_->NextEventTime();
    if (!next.has_value() || *next > t) break;
    Step();
  }
  sim_->RunUntil(t);  // nothing left at or before t: only moves the clock
}

bool LayerTrace::Step() {
  step_layer_ = kLayers;
  const auto start = std::chrono::steady_clock::now();
  const bool ran = sim_->Step();
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  if (!ran) return false;
  layer_ns_[step_layer_ == kLayers ? kOther : step_layer_] += ns;
  step_ns_.push_back(static_cast<double>(ns));
  pending_peak_ = std::max(pending_peak_, sim_->pending());
  pool_size_peak_ = std::max(pool_size_peak_, kubeshare_->pool().size());
  if (!frontends_.empty()) {
    std::size_t ready = 0;
    for (const serving::ServiceFrontend* f : frontends_) {
      ready += f->ready_replicas();
    }
    replicas_ready_peak_ = std::max(replicas_ready_peak_, ready);
  }
  return true;
}

void LayerTrace::OnGrantTrace(std::size_t node, const char* what,
                              const ContainerId& container, Time when) {
  Mark(kVgpuToken);
  const std::string_view kind(what);
  if (kind == "grant") {
    hold_start_[container] = sim_->Now();
  } else if (kind == "expire") {
    ++expires_;
  } else if (kind == "release") {
    ++releases_;
    auto it = hold_start_.find(container);
    if (it != hold_start_.end()) {
      hold_ms_.push_back(ToSeconds(when - it->second) * 1e3);
      hold_start_.erase(it);
    }
  }
  const std::size_t now_pending =
      cluster_->node(node).token_backend->pending_timers();
  timers_pending_total_ += now_pending;
  timers_pending_total_ -= timers_pending_[node];
  timers_pending_[node] = now_pending;
  timers_pending_peak_ = std::max(timers_pending_peak_, timers_pending_total_);
}

void LayerTrace::OnPod(const k8s::Pod& pod) {
  if (pod.status.node_name.empty()) return;
  // The kubelet's watcher ran earlier in this same delivery batch, so a
  // start it queued for this pod is already visible.
  const k8s::Cluster::NodeHandle* node =
      cluster_->FindNode(pod.status.node_name);
  if (node != nullptr) {
    start_queue_peak_ =
        std::max(start_queue_peak_, node->runtime->queued_starts());
  }
}

void LayerTrace::OnSharePod(const kubeshare::SharePod& pod, bool deleted) {
  SharePodSeen& seen = sharepods_[pod.meta.name];
  const bool live = !deleted && !pod.terminal();
  const bool pending =
      live && pod.status.phase == kubeshare::SharePodPhase::kPending;
  if (live != seen.live) live ? ++live_ : --live_;
  if (pending != seen.pending) pending ? ++backlog_ : --backlog_;
  seen.live = live;
  seen.pending = pending;
  live_peak_ = std::max(live_peak_, live_);
  backlog_peak_ = std::max(backlog_peak_, backlog_);
  // Modeled waits come from the object's own timestamps, not from when the
  // watch delivered them.
  const auto& st = pod.status;
  if (!seen.waited && st.scheduled_time.has_value()) {
    seen.waited = true;
    queue_wait_s_.push_back(
        ToSeconds(*st.scheduled_time - pod.meta.creation_time));
  }
  if (!seen.bound && st.scheduled_time.has_value() &&
      st.running_time.has_value()) {
    seen.bound = true;
    bind_wait_s_.push_back(ToSeconds(*st.running_time - *st.scheduled_time));
  }
}

void LayerTrace::Report(MetricList& out) {
  std::int64_t total_ns = 0;
  for (std::int64_t ns : layer_ns_) total_ns += ns;
  const auto share = [&](Layer layer) {
    return total_ns > 0 ? static_cast<double>(layer_ns_[layer]) /
                              static_cast<double>(total_ns)
                        : 0.0;
  };
  out.emplace_back("sim.pending_peak", static_cast<double>(pending_peak_));
  out.emplace_back("sim.step_ns_p50", Percentile(step_ns_, 50));
  out.emplace_back("sim.step_ns_p99", Percentile(step_ns_, 99));
  out.emplace_back("sim.host_share.gpu.device", share(kGpuDevice));
  out.emplace_back("sim.host_share.vgpu.token", share(kVgpuToken));
  out.emplace_back("sim.host_share.k8s.store", share(kK8sStore));
  out.emplace_back("sim.host_share.serving", share(kServing));
  out.emplace_back("sim.host_share.other", share(kOther));
  out.emplace_back("k8s.store.sharepods_live_peak",
                   static_cast<double>(live_peak_));
  out.emplace_back("k8s.kubelet.start_queue_peak",
                   static_cast<double>(start_queue_peak_));
  out.emplace_back("kubeshare.sched.backlog_peak",
                   static_cast<double>(backlog_peak_));
  out.emplace_back("kubeshare.sched.queue_wait_s_p50",
                   Percentile(queue_wait_s_, 50));
  out.emplace_back("kubeshare.sched.queue_wait_s_p99",
                   Percentile(queue_wait_s_, 99));
  out.emplace_back("kubeshare.devmgr.pool_size_peak",
                   static_cast<double>(pool_size_peak_));
  out.emplace_back("kubeshare.devmgr.bind_wait_s_p99",
                   Percentile(bind_wait_s_, 99));
  out.emplace_back("vgpu.token.expires", static_cast<double>(expires_));
  out.emplace_back("vgpu.token.releases", static_cast<double>(releases_));
  out.emplace_back("vgpu.token.hold_ms_p50", Percentile(hold_ms_, 50));
  out.emplace_back("vgpu.token.timers_pending_peak",
                   static_cast<double>(timers_pending_peak_));
  out.emplace_back("gpu.device.kernels", static_cast<double>(kernels_));
  out.emplace_back("serving.replicas_ready_peak",
                   static_cast<double>(replicas_ready_peak_));
}

}  // namespace perfbench
