#include "chaos/injector.hpp"

#include <cassert>

#include "k8s/resources.hpp"
#include "workload/host.hpp"

namespace ks::chaos {

namespace {
constexpr const char* kComponent = "chaos";
/// Poll cadence of a fault's recovery (MTTR) probe.
constexpr Duration kRecoveryPoll = Millis(500);
/// A probe gives up after this long, so the event queue stays drainable
/// when the cluster never re-converges.
constexpr Duration kRecoveryTimeout = Seconds(120);
}  // namespace

FaultInjector::FaultInjector(k8s::Cluster* cluster, FaultPlan plan)
    : cluster_(cluster), plan_(std::move(plan)) {
  assert(cluster_ != nullptr);
}

void FaultInjector::SetKubeShare(kubeshare::KubeShare* kubeshare) {
  kubeshare_ = kubeshare;
  if (kubeshare_ != nullptr && kubeshare_->elector() != nullptr) {
    RegisterElector(kubeshare_->elector());
  }
}

void FaultInjector::SetWorkloadHost(workload::WorkloadHost* host) {
  workload_host_ = host;
}

void FaultInjector::RegisterElector(k8s::LeaderElector* elector) {
  for (k8s::LeaderElector* e : electors_) {
    if (e == elector) return;
  }
  electors_.push_back(elector);
}

Status FaultInjector::Arm() {
  if (armed_) return FailedPreconditionError("injector already armed");
  armed_ = true;
  const Time now = cluster_->sim().Now();
  for (const Fault& fault : plan_.faults) {
    if (fault.at < now) continue;
    cluster_->sim().ScheduleAfter(fault.at - now,
                                  [this, fault] { Inject(fault); });
  }
  return Status::Ok();
}

void FaultInjector::Inject(const Fault& fault) {
  cluster_->api().events().Record(kComponent, "plan", "InjectFault",
                                  fault.ToString());
  switch (fault.kind) {
    case FaultKind::kNodeCrash: InjectNodeCrash(fault); break;
    case FaultKind::kNodeRecover: InjectNodeRecover(fault); break;
    case FaultKind::kTokenDaemonRestart: InjectDaemonRestart(fault); break;
    case FaultKind::kContainerOomKill: InjectOomKill(fault); break;
    case FaultKind::kApiLatencySpike: InjectLatencySpike(fault); break;
    case FaultKind::kDropWatchEvent: InjectDropEvents(fault); break;
    case FaultKind::kDevMgrCrash: InjectDevMgrCrash(fault); break;
    case FaultKind::kSchedCrash: InjectSchedCrash(fault); break;
    case FaultKind::kLeaderPartition: InjectLeaderPartition(fault); break;
    case FaultKind::kTenantTokenOverstay:
    case FaultKind::kTenantKernelFlood:
    case FaultKind::kTenantMemoryProbe:
    case FaultKind::kTenantMetricsSpoof:
      InjectAdversarial(fault);
      break;
  }
}

void FaultInjector::RecordSkip(const Fault& fault, const std::string& why) {
  ++stats_.faults_skipped;
  cluster_->api().events().Record(kComponent, "plan", "FaultSkipped",
                                  std::string(FaultKindName(fault.kind)) +
                                      ": " + why);
}

void FaultInjector::InjectNodeCrash(const Fault& fault) {
  if (cluster_->NodeCrashed(fault.node)) {
    RecordSkip(fault, "node already down: " + fault.node);
    return;
  }
  // Snapshot the affected set BEFORE the crash: the non-terminal pods
  // bound to the node. Recovery = all of them gone from the node.
  std::vector<std::string> affected;
  for (const k8s::Pod& pod : cluster_->api().pods().List()) {
    if (pod.status.node_name == fault.node && !pod.terminal()) {
      affected.push_back(pod.meta.name);
    }
  }
  const Status crashed = cluster_->CrashNode(fault.node);
  if (!crashed.ok()) {
    RecordSkip(fault, crashed.ToString());
    return;
  }
  ++stats_.faults_injected;
  ++stats_.node_crashes;
  if (!affected.empty()) {
    auto drained = [this, node = fault.node, affected = std::move(affected)](
                       Duration elapsed) -> std::optional<std::string> {
      for (const std::string& name : affected) {
        auto pod = cluster_->api().pods().Get(name);
        if (!pod.ok()) continue;  // deleted (e.g. requeued workload) = gone
        if (pod->status.node_name == node && !pod->terminal()) {
          return std::nullopt;
        }
      }
      return "drained in " + FormatTime(elapsed);
    };
    Poll({std::move(drained), "node/" + fault.node, "Recovered",
          "RecoveryTimeout", &ChaosStats::recoveries_measured,
          &ChaosStats::total_recovery_time, cluster_->sim().Now()});
  }
  if (fault.duration.count() > 0) {
    cluster_->sim().ScheduleAfter(fault.duration, [this, fault] {
      Fault recover;
      recover.at = fault.at + fault.duration;
      recover.kind = FaultKind::kNodeRecover;
      recover.node = fault.node;
      Inject(recover);
    });
  }
}

void FaultInjector::InjectNodeRecover(const Fault& fault) {
  if (!cluster_->NodeCrashed(fault.node)) {
    RecordSkip(fault, "node not down: " + fault.node);
    return;
  }
  const Status recovered = cluster_->RecoverNode(fault.node);
  if (!recovered.ok()) {
    RecordSkip(fault, recovered.ToString());
    return;
  }
  ++stats_.faults_injected;
  ++stats_.node_recoveries;
}

void FaultInjector::InjectDaemonRestart(const Fault& fault) {
  k8s::Cluster::NodeHandle* node = cluster_->FindNode(fault.node);
  if (node == nullptr) {
    RecordSkip(fault, "no node: " + fault.node);
    return;
  }
  if (node->crashed) {
    RecordSkip(fault, "node down, daemon already dead: " + fault.node);
    return;
  }
  node->token_backend->Restart();
  assert(node->token_backend->down());
  ++stats_.faults_injected;
  ++stats_.daemon_restarts;
}

void FaultInjector::InjectOomKill(const Fault& fault) {
  std::string target = fault.pod;
  if (target.empty()) {
    // The kernel OOM-killer goes for the memory hog: pick the running pod
    // with the largest memory request, tie-broken by CPU request and then
    // by name (List() is name-sorted), so the choice is a deterministic
    // function of cluster state. Infrastructure pause pods request
    // nothing and are only hit when nothing else runs.
    std::pair<std::int64_t, std::int64_t> best{-1, -1};
    for (const k8s::Pod& pod : cluster_->api().pods().List()) {
      if (pod.status.phase != k8s::PodPhase::kRunning || pod.terminal()) {
        continue;
      }
      const std::pair<std::int64_t, std::int64_t> score{
          pod.spec.requests.Get(k8s::kResourceMemory),
          pod.spec.requests.Get(k8s::kResourceCpu)};
      if (score > best) {
        best = score;
        target = pod.meta.name;
      }
    }
  }
  if (target.empty()) {
    RecordSkip(fault, "no running pod to OOM-kill");
    return;
  }
  const Status killed = cluster_->OomKillPod(target);
  if (!killed.ok()) {
    RecordSkip(fault, killed.ToString());
    return;
  }
  ++stats_.faults_injected;
  ++stats_.oom_kills;
}

void FaultInjector::InjectLatencySpike(const Fault& fault) {
  k8s::ObjectStore<k8s::Pod>& pods = cluster_->api().pods();
  k8s::ObjectStore<k8s::Node>& nodes = cluster_->api().nodes();
  // Overlapping spikes: the latest one's latency holds, and the latency
  // from before the first returns when the last one ends.
  if (open_latency_spikes_++ == 0) {
    pods_latency_before_ = pods.notify_latency();
    nodes_latency_before_ = nodes.notify_latency();
  }
  pods.SetNotifyLatency(fault.latency);
  nodes.SetNotifyLatency(fault.latency);
  ++stats_.faults_injected;
  ++stats_.latency_spikes;
  cluster_->sim().ScheduleAfter(fault.duration, [this] {
    if (--open_latency_spikes_ > 0) return;
    cluster_->api().pods().SetNotifyLatency(pods_latency_before_);
    cluster_->api().nodes().SetNotifyLatency(nodes_latency_before_);
    cluster_->api().events().Record(kComponent, "apiserver",
                                    "LatencyRestored");
  });
}

void FaultInjector::InjectDropEvents(const Fault& fault) {
  cluster_->api().pods().DropEvents(fault.drop_count);
  ++stats_.faults_injected;
  stats_.watch_events_dropped += static_cast<std::uint64_t>(fault.drop_count);
}

void FaultInjector::InjectDevMgrCrash(const Fault& fault) {
  if (kubeshare_ == nullptr) {
    RecordSkip(fault, "no KubeShare control plane attached");
    return;
  }
  if (kubeshare_->devmgr().crashes() > kubeshare_->devmgr().rebuilds()) {
    RecordSkip(fault, "DevMgr already down");
    return;
  }
  // Snapshot the in-flight population: every non-terminal sharePod at the
  // moment of death. Recovery = each one terminal, requeued, or running
  // again under the rebuilt pool.
  std::vector<std::string> snapshot;
  for (const kubeshare::SharePod& sp : kubeshare_->sharepods().List()) {
    if (!sp.terminal()) snapshot.push_back(sp.meta.name);
  }
  kubeshare_->devmgr().Crash();
  ++stats_.faults_injected;
  ++stats_.devmgr_crashes;
  auto converged = [this, snapshot = std::move(snapshot)](
                       Duration elapsed) -> std::optional<std::string> {
    if (!kubeshare_->pool().CheckIndexInvariants().ok()) return std::nullopt;
    for (const std::string& name : snapshot) {
      auto sp = kubeshare_->sharepods().Get(name);
      if (!sp.ok() || sp->terminal()) continue;  // finished or deleted
      if (!sp->scheduled()) continue;            // requeued: sched's court
      if (sp->status.phase == kubeshare::SharePodPhase::kRunning) continue;
      // Scheduled but not running: converged only once its workload pod
      // exists again (acquisition/launch still in flight otherwise).
      if (!sp->status.workload_pod.empty() &&
          cluster_->api().pods().Contains(sp->status.workload_pod)) {
        continue;
      }
      return std::nullopt;
    }
    return "converged in " + FormatTime(elapsed);
  };
  Probe probe{std::move(converged), "kubeshare-devmgr", "Recovered",
              "RecoveryTimeout", &ChaosStats::devmgr_recoveries_measured,
              &ChaosStats::devmgr_recovery_time, cluster_->sim().Now()};
  const Duration downtime =
      fault.duration.count() > 0 ? fault.duration : Seconds(2);
  cluster_->sim().ScheduleAfter(downtime,
                                [this, probe = std::move(probe)]() mutable {
    const Status restarted = kubeshare_->devmgr().Restart();
    cluster_->api().events().Record(kComponent, "kubeshare-devmgr",
                                    "Restarted", restarted.ToString());
    Poll(std::move(probe));
  });
}

void FaultInjector::InjectSchedCrash(const Fault& fault) {
  if (kubeshare_ == nullptr) {
    RecordSkip(fault, "no KubeShare control plane attached");
    return;
  }
  if (!kubeshare_->sched().running()) {
    RecordSkip(fault, "KubeShare-Sched already down");
    return;
  }
  // Snapshot the pending population: recovery = each one placed (or
  // terminal/deleted) after the restart's relist.
  std::vector<std::string> snapshot;
  for (const kubeshare::SharePod& sp : kubeshare_->sharepods().List()) {
    if (!sp.terminal() && !sp.scheduled()) snapshot.push_back(sp.meta.name);
  }
  kubeshare_->sched().Crash();
  ++stats_.faults_injected;
  ++stats_.sched_crashes;
  auto converged = [this, snapshot = std::move(snapshot)](
                       Duration elapsed) -> std::optional<std::string> {
    for (const std::string& name : snapshot) {
      auto sp = kubeshare_->sharepods().Get(name);
      if (!sp.ok() || sp->terminal() || sp->scheduled()) continue;
      return std::nullopt;
    }
    return "converged in " + FormatTime(elapsed);
  };
  Probe probe{std::move(converged), "kubeshare-sched", "Recovered",
              "RecoveryTimeout", &ChaosStats::sched_recoveries_measured,
              &ChaosStats::sched_recovery_time, cluster_->sim().Now()};
  const Duration downtime =
      fault.duration.count() > 0 ? fault.duration : Seconds(2);
  cluster_->sim().ScheduleAfter(downtime,
                                [this, probe = std::move(probe)]() mutable {
    const Status restarted = kubeshare_->sched().Restart();
    cluster_->api().events().Record(kComponent, "kubeshare-sched",
                                    "Restarted", restarted.ToString());
    Poll(std::move(probe));
  });
}

void FaultInjector::InjectLeaderPartition(const Fault& fault) {
  k8s::LeaderElector* leader = nullptr;
  for (k8s::LeaderElector* e : electors_) {
    if (e->IsLeader() && !e->partitioned()) leader = e;
  }
  if (leader == nullptr) {
    RecordSkip(fault, "no un-partitioned leader to partition");
    return;
  }
  leader->SetPartitioned(true);
  ++stats_.faults_injected;
  ++stats_.leader_partitions;
  cluster_->api().events().Record(kComponent, "leader-election",
                                  "LeaderPartitioned",
                                  leader->config().identity);
  const Duration length =
      fault.duration.count() > 0 ? fault.duration : Seconds(15);
  cluster_->sim().ScheduleAfter(length, [this, leader] {
    leader->SetPartitioned(false);
    cluster_->api().events().Record(kComponent, "leader-election",
                                    "PartitionHealed",
                                    leader->config().identity);
  });
  auto taken_over =
      [this](Duration elapsed) -> std::optional<std::string> {
    for (k8s::LeaderElector* e : electors_) {
      if (e->IsLeader() && !e->partitioned()) {
        return e->config().identity + " after " + FormatTime(elapsed);
      }
    }
    return std::nullopt;
  };
  Poll({std::move(taken_over), "leader-election", "TakeoverObserved",
        "TakeoverTimeout", &ChaosStats::leader_takeovers_measured,
        &ChaosStats::leader_takeover_time, cluster_->sim().Now()});
}

void FaultInjector::InjectAdversarial(const Fault& fault) {
  if (workload_host_ == nullptr) {
    RecordSkip(fault, "no workload host attached");
    return;
  }
  std::string job = fault.pod;
  if (job.empty()) {
    // Deterministic default target: the first running KubeShare job in
    // name order — a pure function of cluster state, like the OOM-killer's
    // memory-hog pick above.
    const std::vector<std::string> running =
        workload_host_->RunningKubeShareJobs();
    if (!running.empty()) job = running.front();
  }
  if (job.empty()) {
    RecordSkip(fault, "no running KubeShare job to turn hostile");
    return;
  }
  vgpu::FrontendHook* hook = workload_host_->MutableRunningHook(job);
  if (hook == nullptr) {
    RecordSkip(fault, "job not running under a frontend hook: " + job);
    return;
  }
  // Overlapping windows compose: start from whatever misbehavior is
  // already active and add this fault's flag.
  vgpu::AdversarialSpec spec =
      hook->adversarial() ? *hook->adversarial_spec() : vgpu::AdversarialSpec{};
  switch (fault.kind) {
    case FaultKind::kTenantTokenOverstay:
      spec.overstay = true;
      ++stats_.tenant_overstays;
      break;
    case FaultKind::kTenantKernelFlood:
      spec.kernel_flood = true;
      ++stats_.tenant_floods;
      break;
    case FaultKind::kTenantMemoryProbe:
      spec.memory_probe = true;
      ++stats_.tenant_probes;
      break;
    case FaultKind::kTenantMetricsSpoof:
      spec.metrics_spoof = true;
      ++stats_.tenant_spoofs;
      break;
    default:
      RecordSkip(fault, "not an adversarial fault");
      return;
  }
  hook->SetAdversarial(spec, &cluster_->sim());
  ++stats_.faults_injected;
  cluster_->api().events().Record(kComponent, "job/" + job, "TenantHostile",
                                  FaultKindName(fault.kind));
  if (fault.duration.count() > 0) {
    cluster_->sim().ScheduleAfter(fault.duration,
                                  [this, job, kind = fault.kind] {
                                    ClearAdversarial(job, kind);
                                  });
  }
}

void FaultInjector::ClearAdversarial(const std::string& job, FaultKind kind) {
  // Re-resolve: the job may have finished, been evicted, or restarted into
  // a fresh (polite) hook since the window opened.
  vgpu::FrontendHook* hook =
      workload_host_ == nullptr ? nullptr
                                : workload_host_->MutableRunningHook(job);
  if (hook == nullptr || !hook->adversarial()) return;
  vgpu::AdversarialSpec spec = *hook->adversarial_spec();
  switch (kind) {
    case FaultKind::kTenantTokenOverstay: spec.overstay = false; break;
    case FaultKind::kTenantKernelFlood: spec.kernel_flood = false; break;
    case FaultKind::kTenantMemoryProbe: spec.memory_probe = false; break;
    case FaultKind::kTenantMetricsSpoof: spec.metrics_spoof = false; break;
    default: return;
  }
  if (spec.overstay || spec.kernel_flood || spec.memory_probe ||
      spec.metrics_spoof) {
    hook->SetAdversarial(spec, &cluster_->sim());
  } else {
    hook->ClearAdversarial();
  }
  ++stats_.tenant_attacks_cleared;
  cluster_->api().events().Record(kComponent, "job/" + job, "TenantPolite",
                                  FaultKindName(kind));
}

void FaultInjector::Poll(Probe probe) {
  cluster_->sim().ScheduleAfter(
      kRecoveryPoll, [this, probe = std::move(probe)]() mutable {
        const Duration elapsed = cluster_->sim().Now() - probe.since;
        if (std::optional<std::string> message = probe.converged(elapsed)) {
          ++(stats_.*probe.measured);
          stats_.*probe.time += elapsed;
          cluster_->api().events().Record(kComponent, probe.object,
                                          probe.done_reason,
                                          std::move(*message));
          return;
        }
        if (elapsed >= kRecoveryTimeout) {
          ++stats_.recoveries_timed_out;
          cluster_->api().events().Record(kComponent, probe.object,
                                          probe.timeout_reason);
          return;
        }
        Poll(std::move(probe));
      });
}

}  // namespace ks::chaos
