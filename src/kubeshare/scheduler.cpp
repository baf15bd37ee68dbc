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
  queue_.clear();
  queued_.clear();
  waiting_.clear();
  flush_scheduled_ = false;
  cycle_active_ = false;
  // In-memory caches die with the process; the version guard would keep a
  // stale snapshot correct, but a restarted scheduler starts cold.
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

std::vector<NodeFreeGpus> KubeShareSched::FreePhysicalGpus() const {
  const std::uint64_t pods_v = cluster_->api().pods().version();
  const std::uint64_t nodes_v = cluster_->api().nodes().version();
  if (!snapshot_valid_ || snapshot_pods_version_ != pods_v ||
      snapshot_nodes_version_ != nodes_v) {
    // Rebuild the store-derived base: one consistent pass over the pod and
    // node stores, valid until either store's version moves again.
    snapshot_base_.clear();
    // Native (non-KubeShare) GPU pods per node.
    std::map<std::string, int> native;
    cluster_->api().pods().ForEach([&](const k8s::Pod& pod) {
      if (pod.terminal() || !pod.scheduled()) return;
      if (pod.meta.labels.count(kManagedLabel) > 0) return;
      const auto gpus = pod.spec.requests.Get(k8s::kResourceNvidiaGpu);
      if (gpus > 0) native[pod.status.node_name] += static_cast<int>(gpus);
    });
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
          static_cast<int>(node.capacity.Get(k8s::kResourceNvidiaGpu)) -
          native[node.meta.name];
      snapshot_base_.push_back(entry);
    });
    snapshot_pods_version_ = pods_v;
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
  // The O(N) term counts *live* sharePods (Fig 11): each cycle re-reads
  // the status of every non-terminal sharePod through the apiserver.
  // Completed sharePods drop out of the loop. ForEach, not List: the scan
  // only needs the terminal flag, and at 100k sharePods a full deep copy
  // per cycle dominates the scheduler's own work.
  std::int64_t live = 0;
  sharepods_->ForEach([&](const SharePod& sp) {
    if (!sp.terminal()) ++live;
  });
  const Duration cycle =
      config_.sched_fixed + config_.sched_per_sharepod * live;
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
