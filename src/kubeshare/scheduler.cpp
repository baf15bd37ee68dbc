#include "kubeshare/scheduler.hpp"

#include <cassert>
#include <chrono>

#include "common/log.hpp"
#include "k8s/resources.hpp"

namespace ks::kubeshare {

KubeShareSched::KubeShareSched(k8s::Cluster* cluster,
                               k8s::ObjectStore<SharePod>* sharepods,
                               VgpuPool* pool, KubeShareConfig config)
    : cluster_(cluster),
      sharepods_(sharepods),
      pool_(pool),
      config_(config) {
  assert(cluster_ != nullptr && sharepods_ != nullptr && pool_ != nullptr);
}

Status KubeShareSched::Start() {
  if (started_) return FailedPreconditionError("KubeShare-Sched started");
  started_ = true;
  // The counts are zero (fresh, or cleared by Crash); the replay fills them.
  live_observer_ = sharepods_->Observe(
      [this](const SharePod* before, const SharePod* after) {
        live_ += (after != nullptr && !after->terminal()) -
                 (before != nullptr && !before->terminal());
      });
  native_observer_ = cluster_->api().pods().Observe(
      std::bind_front(&KubeShareSched::OnPodWrite, this));
  watch_ = sharepods_->Watch(
      [this](const k8s::WatchEvent<SharePod>& ev) { OnSharePodEvent(ev); });
  return Status::Ok();
}

void KubeShareSched::Crash() {
  if (!started_) return;
  started_ = false;
  ++crashes_;
  ++epoch_;
  sharepods_->Unwatch(watch_);
  watch_ = 0;
  sharepods_->Unobserve(live_observer_);
  cluster_->api().pods().Unobserve(native_observer_);
  live_ = 0;
  native_gpus_.clear();
  queue_.clear();
  queued_.clear();
  waiting_.clear();
  flush_scheduled_ = false;
  cycle_active_ = false;
  // The snapshot dies with the native counts it was built from.
  snapshot_valid_ = false;
  snapshot_base_.clear();
}

Status KubeShareSched::Restart() {
  if (started_) return FailedPreconditionError("KubeShare-Sched running");
  return Start();
}

void KubeShareSched::SetFencingTokenProvider(
    std::function<std::uint64_t()> provider) {
  token_provider_ = std::move(provider);
}

std::uint64_t KubeShareSched::Token() const {
  return token_provider_ ? token_provider_() : 0;
}

void KubeShareSched::OnPodWrite(const k8s::Pod* before,
                                const k8s::Pod* after) {
  // A pod's GPUs outside KubeShare: scheduled, non-terminal, no kManagedLabel.
  static const std::string managed = kManagedLabel;
  const auto native = [](const k8s::Pod* pod) {
    if (pod == nullptr || pod->terminal() || !pod->scheduled()) return 0;
    const auto gpus = pod->spec.requests.Get(k8s::kResourceNvidiaGpu);
    if (gpus <= 0 || pod->meta.labels.count(managed) > 0) return 0;
    return static_cast<int>(gpus);
  };
  const int was = native(before), now = native(after);
  if (was == now &&
      (was == 0 || before->status.node_name == after->status.node_name)) {
    return;
  }
  if (was > 0) native_gpus_[before->status.node_name] -= was;
  if (now > 0) native_gpus_[after->status.node_name] += now;
  ++native_version_;
}

std::vector<NodeFreeGpus> KubeShareSched::FreePhysicalGpus() const {
  if (!started_) return {};  // the native counts died with the process
  const std::uint64_t nodes_v = cluster_->api().nodes().version();
  if (!snapshot_valid_ || snapshot_native_version_ != native_version_ ||
      snapshot_nodes_version_ != nodes_v) {
    // Rebuild the base; it holds until the node store or a native count moves.
    snapshot_base_.clear();
    cluster_->api().nodes().ForEach([&](const k8s::Node& node) {
      // A NotReady node's GPUs are not schedulable capacity — new vGPUs
      // must not be acquired there (the acquisition pod could never start).
      if (!node.ready) return;
      NodeFreeGpus entry;
      entry.node = node.meta.name;
      // Physical GPU count: with the stock plugin this equals the
      // advertised capacity; KubeShare requires the stock (unscaled)
      // plugin.
      entry.free =
          static_cast<int>(node.capacity.Get(k8s::kResourceNvidiaGpu));
      const auto native = native_gpus_.find(entry.node);
      if (native != native_gpus_.end()) entry.free -= native->second;
      snapshot_base_.push_back(entry);
    });
    snapshot_native_version_ = native_version_;
    snapshot_nodes_version_ = nodes_v;
    snapshot_valid_ = true;
    ++snapshot_refreshes_;
  } else {
    ++snapshot_hits_;
  }
  // The pool term moves with Algorithm 1's own reservations inside a
  // cycle, so it is applied live rather than baked into the snapshot.
  std::vector<NodeFreeGpus> out = snapshot_base_;
  for (NodeFreeGpus& entry : out) {
    entry.free -= static_cast<int>(pool_->CountOnNode(entry.node));
  }
  return out;
}

void KubeShareSched::OnSharePodEvent(const k8s::WatchEvent<SharePod>& event) {
  if (event.type == k8s::WatchEventType::kDeleted) return;
  const SharePod& pod = event.object;
  if (pod.terminal()) return;
  if (pod.scheduled()) return;  // already has a GPUID
  if (Enqueue(pod.meta.name, pod.spec.priority)) Pump();
}

bool KubeShareSched::Enqueue(const std::string& name, int priority) {
  if (!queued_.insert(name).second) return false;
  queue_.insert({priority, next_seq_++, name});
  return true;
}

void KubeShareSched::Pump() {
  if (cycle_active_ || queue_.empty()) return;
  cycle_active_ = true;
  // Highest priority first; FIFO among equals. Keys are read at enqueue
  // and priority is fixed at creation, so a key goes stale only when its
  // sharePod is gone: the name then ranks as priority 0 at its arrival
  // position (ScheduleOne cleans it up). Keys only fall, so once the head
  // is re-keyed to its current priority, every key behind it bounds its
  // own sharePod's priority from above and the head is the pick.
  for (;;) {
    const QueueEntry& head = *queue_.begin();
    const SharePod* sp = sharepods_->Find(head.name);
    const int priority = sp != nullptr ? sp->spec.priority : 0;
    if (priority == head.priority) break;
    auto node = queue_.extract(queue_.begin());
    node.value().priority = priority;
    queue_.insert(std::move(node));
  }
  const std::string name = queue_.begin()->name;
  queue_.erase(queue_.begin());
  queued_.erase(name);
  // The O(N) term counts *live* sharePods (Fig 11): the modeled cycle
  // re-reads every non-terminal sharePod's status through the apiserver.
  // The host reads the count the sharePod-store observer keeps.
  const Duration cycle =
      config_.sched_fixed + config_.sched_per_sharepod * live_;
  const std::uint64_t epoch = epoch_;
  cluster_->sim().ScheduleAfter(cycle, [this, name, epoch] {
    if (epoch != epoch_) return;  // scheduler crashed meanwhile
    cycle_active_ = false;
    ScheduleOne(name);
    Pump();
  });
}

void KubeShareSched::ScheduleOne(const std::string& name) {
  const SharePod* pod = sharepods_->Find(name);
  if (pod == nullptr || pod->terminal()) return;
  if (pod->scheduled()) return;

  ScheduleRequest request;
  request.sharepod = name;
  request.gpu = pod->spec.gpu;
  request.locality = pod->spec.locality;
  request.node_constraint = pod->spec.node_name;

  const auto free = FreePhysicalGpus();
  const auto wall_start = std::chrono::steady_clock::now();
  auto result = ScheduleSharePod(*pool_, request, free, config_.placement);
  const auto wall_end = std::chrono::steady_clock::now();
  decision_stats_.Add(
      std::chrono::duration<double, std::micro>(wall_end - wall_start)
          .count());

  if (!result.ok()) {
    if (result.status().code() == StatusCode::kUnavailable) {
      // No capacity right now: park it and flush all waiters together
      // after the backoff, so priority re-orders the contenders.
      ++retry_count_;
      waiting_.insert(name);
      if (!flush_scheduled_) {
        flush_scheduled_ = true;
        const std::uint64_t epoch = epoch_;
        cluster_->sim().ScheduleAfter(config_.sched_retry, [this, epoch] {
          if (epoch != epoch_) return;  // scheduler crashed meanwhile
          flush_scheduled_ = false;
          auto parked = std::move(waiting_);
          waiting_.clear();
          // Batch: everyone joins the queue before the next cycle starts,
          // so the priority pick sees the whole group.
          for (const std::string& waiter : parked) {
            const SharePod* p = sharepods_->Find(waiter);
            if (p == nullptr || p->terminal() || p->scheduled()) continue;
            Enqueue(waiter, p->spec.priority);
          }
          Pump();
        });
      }
      return;
    }
    // Constraint violation: Algorithm 1 "return -1".
    ++rejected_count_;
    cluster_->api().events().Record("kubeshare-sched", "sharepod/" + name,
                                    "Rejected", result.status().message());
    const std::string reason = result.status().ToString();
    (void)k8s::RetryOnConflict(
        *sharepods_, name,
        [&](SharePod& sp) {
          sp.status.phase = SharePodPhase::kRejected;
          sp.status.message = reason;
          return Status::Ok();
        },
        Token());
    return;
  }

  auto device = pool_->Get(*result);
  assert(device.ok());
  // Slice placements are part of the scheduling decision: persist the
  // assigned SM-group offset so a restarted DevMgr re-attaches the exact
  // same groups instead of re-running first-fit against a rebuilt pool.
  const auto slice = pool_->SliceOf(name);
  const Status wrote = k8s::RetryOnConflict(
      *sharepods_, name,
      [&](SharePod& sp) {
        sp.spec.gpu_id = *result;
        sp.spec.node_name = device->node;
        sp.spec.slice_offset = slice.has_value() ? slice->first : -1;
        sp.status.scheduled_time = cluster_->sim().Now();
        return Status::Ok();
      },
      Token());
  if (!wrote.ok()) {
    // The placement never reached the apiserver (fenced write from a
    // deposed leader, or the object vanished) — undo the pool
    // reservation Algorithm 1 made, or the capacity leaks.
    (void)pool_->Detach(name);
    if (auto dev_now = pool_->Get(*result);
        dev_now.ok() && dev_now->attached.empty() &&
        !dev_now->uuid.has_value()) {
      (void)pool_->Remove(*result);
    }
    return;
  }
  ++scheduled_count_;
  cluster_->api().events().Record(
      "kubeshare-sched", "sharepod/" + name, "Scheduled",
      "vGPU " + result->value() + " on " + device->node);
}

}  // namespace ks::kubeshare
