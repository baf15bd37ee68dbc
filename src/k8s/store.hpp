#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace ks::k8s {

enum class WatchEventType { kAdded, kModified, kDeleted };

template <typename T>
struct WatchEvent {
  WatchEventType type;
  T object;  // final state (for kDeleted, the state at deletion)
};

using WatchId = std::uint64_t;
using ObserverId = std::uint64_t;

/// Delivery scheduler for watch events. Every store enqueues its watch
/// deliveries on a hub; stores whose deliveries can fall on the same virtual
/// time share one (the ApiServer's built-in stores and KubeShare's sharePod
/// store do), so one order holds across them.
///
/// Contract: deliveries due at one instant run in enqueue order from one
/// engine event, and a delivery that a flush enqueues for its own instant
/// (a zero-latency cascade) arms a fresh event at that instant, which the
/// engine runs after the current one.
class WatchHub {
 public:
  explicit WatchHub(sim::Simulation* sim) : sim_(sim) {}

  WatchHub(const WatchHub&) = delete;
  WatchHub& operator=(const WatchHub&) = delete;

  /// Enqueues a delivery closure for absolute time `at`. The first closure
  /// for a given time arms one engine event; later closures for the same
  /// time ride it.
  void Enqueue(Time at, std::function<void()> fn) {
    auto [it, fresh] = pending_.try_emplace(at);
    it->second.push_back(std::move(fn));
    if (fresh) {
      ++batches_;
      sim_->ScheduleAt(at, [this, at] { Flush(at); });
    }
  }

  /// Engine events armed: one per delivery instant, plus one per
  /// same-instant cascade.
  std::uint64_t batches() const { return batches_; }

 private:
  void Flush(Time at) {
    auto node = pending_.extract(at);
    if (node.empty()) return;
    for (auto& fn : node.mapped()) fn();
  }

  sim::Simulation* sim_;
  std::map<Time, std::vector<std::function<void()>>> pending_;
  std::uint64_t batches_ = 0;
};

/// Write-fencing gate shared by a store's mutating operations. A leader
/// elector that wins a lease with fencing token N raises the floor to N at
/// the apiserver; any later write stamped with an older token — a deposed
/// leader that does not yet know it lost — is rejected as a Conflict
/// instead of clobbering the new leader's state. Token 0 marks an unfenced
/// writer (infrastructure components that do not run leader-elected) and
/// always passes.
class FencingGate {
 public:
  /// Raises the floor (monotonic: a floor never goes back down).
  void Raise(std::uint64_t token) {
    if (token > floor_) floor_ = token;
  }

  bool Admits(std::uint64_t token) const {
    return token == 0 || token >= floor_;
  }

  std::uint64_t floor() const { return floor_; }
  std::uint64_t rejected() const { return rejected_; }
  void RecordRejection() { ++rejected_; }

 private:
  std::uint64_t floor_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Typed object store with watch semantics — the etcd + apiserver storage
/// path reduced to what the controllers in this reproduction observe:
/// linearized CRUD on named objects, monotonically increasing resource
/// versions, and asynchronous watch notification (events are delivered
/// through the event queue after a small propagation latency, never
/// synchronously, mirroring how real controllers see a delayed cache).
///
/// Watch contract: each watcher a write selects gets it at write time +
/// notify latency, in write order with the store's other writes. When the
/// latency drops, a delivery waits for the store's last scheduled one, so a
/// stream never overtakes itself.
///
/// Every API object kind gets its own store; adding a custom resource kind
/// (KubeShare's sharePod) is just instantiating another store — the
/// "operator pattern" needs no apiserver change.
template <typename T>
class ObjectStore {
 public:
  using WatchFn = std::function<void(const WatchEvent<T>&)>;
  /// Server-side watch filter (a field or label selector): a watcher only
  /// receives events whose object matches.
  using WatchSelector = std::function<bool(const T&)>;
  using ObserveFn = std::function<void(const T* before, const T* after)>;

  /// Deliveries ride `hub`. Stores whose deliveries can fall on the same
  /// virtual time share one hub, which keeps one order across them; a null
  /// hub gets a private one (fine for a store alone on its engine, as in
  /// most tests).
  explicit ObjectStore(sim::Simulation* sim,
                       Duration notify_latency = Millis(1),
                       WatchHub* hub = nullptr)
      : sim_(sim), notify_latency_(notify_latency), hub_(hub) {
    if (hub_ == nullptr) {
      owned_hub_ = std::make_unique<WatchHub>(sim);
      hub_ = owned_hub_.get();
    }
  }

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  Status Create(T object, std::uint64_t fencing_token = 0) {
    const std::string name = object.meta.name;
    if (name.empty()) return InvalidArgumentError("object has no name");
    KS_RETURN_IF_ERROR(CheckFencing(fencing_token));
    if (objects_.count(name) > 0) {
      return AlreadyExistsError("object exists: " + name);
    }
    object.meta.uid = next_uid_++;
    object.meta.resource_version = ++version_;
    object.meta.creation_time = sim_->Now();
    const T& stored = objects_.emplace(name, object).first->second;
    for (auto& [id, fn] : observers_) fn(nullptr, &stored);
    Notify({WatchEventType::kAdded, std::move(object)});
    return Status::Ok();
  }

  Expected<T> Get(const std::string& name) const {
    auto it = objects_.find(name);
    if (it == objects_.end()) return NotFoundError("no object: " + name);
    return it->second;
  }

  /// Zero-copy lookup: the stored object, or null. The pointer is valid
  /// until the next mutation of this store; read what you need first.
  const T* Find(const std::string& name) const {
    auto it = objects_.find(name);
    return it == objects_.end() ? nullptr : &it->second;
  }

  bool Contains(const std::string& name) const {
    return objects_.count(name) > 0;
  }

  std::vector<T> List() const {
    std::vector<T> out;
    out.reserve(objects_.size());
    for (const auto& [name, obj] : objects_) out.push_back(obj);
    return out;
  }

  std::size_t size() const { return objects_.size(); }

  /// Zero-copy scan in name order. List() copies every object — at 100k
  /// sharePods that copy dominated the scheduler's pump loop; read-only
  /// passes use this instead. The callback must not mutate the store.
  void ForEach(const std::function<void(const T&)>& fn) const {
    for (const auto& [name, obj] : objects_) fn(obj);
  }

  /// Replaces the stored object with optimistic concurrency: the submitted
  /// object's resource_version is the version the writer read, and the
  /// update is rejected as a Conflict if the stored object has moved on —
  /// a concurrent controller won the race and this writer must re-read
  /// (see RetryOnConflict). resource_version 0 bypasses the check
  /// (an unconditional write, as Kubernetes permits when the field is
  /// unset). The uid and creation time are always preserved.
  Status Update(T object, std::uint64_t fencing_token = 0) {
    auto it = objects_.find(object.meta.name);
    if (it == objects_.end()) {
      return NotFoundError("no object: " + object.meta.name);
    }
    KS_RETURN_IF_ERROR(CheckFencing(fencing_token));
    if (object.meta.resource_version != 0 &&
        object.meta.resource_version != it->second.meta.resource_version) {
      ++update_conflicts_;
      return ConflictError(
          "stale write to " + object.meta.name + ": expected version " +
          std::to_string(object.meta.resource_version) + ", store has " +
          std::to_string(it->second.meta.resource_version));
    }
    object.meta.uid = it->second.meta.uid;
    object.meta.creation_time = it->second.meta.creation_time;
    object.meta.resource_version = ++version_;
    for (auto& [id, fn] : observers_) fn(&it->second, &object);
    it->second = object;
    Notify({WatchEventType::kModified, std::move(object)});
    return Status::Ok();
  }

  /// Deletes by name. A non-zero expected_version makes the delete
  /// conditional: it fails with Conflict if the object changed since the
  /// writer read it (preconditions.resourceVersion in Kubernetes terms).
  Status Delete(const std::string& name, std::uint64_t expected_version = 0,
                std::uint64_t fencing_token = 0) {
    auto it = objects_.find(name);
    if (it == objects_.end()) return NotFoundError("no object: " + name);
    KS_RETURN_IF_ERROR(CheckFencing(fencing_token));
    if (expected_version != 0 &&
        expected_version != it->second.meta.resource_version) {
      ++update_conflicts_;
      return ConflictError(
          "stale delete of " + name + ": expected version " +
          std::to_string(expected_version) + ", store has " +
          std::to_string(it->second.meta.resource_version));
    }
    for (auto& [id, fn] : observers_) fn(&it->second, nullptr);
    T final_state = it->second;
    objects_.erase(it);
    // The deletion is itself a versioned mutation: the event carries the
    // deletion's resource_version, not the object's last-update version,
    // so replaying a watch stream against a relist snapshot keeps a total
    // order (an informer must be able to tell "deleted after my list" from
    // "deleted before it").
    final_state.meta.resource_version = ++version_;
    Notify({WatchEventType::kDeleted, std::move(final_state)});
    return Status::Ok();
  }

  /// Registers a watcher. Watchers receive all subsequent events; existing
  /// objects are replayed as kAdded events (the informer "list" phase) so a
  /// controller starting late still converges.
  ///
  /// A `selector` scopes the watch server-side, as a field selector such as
  /// spec.nodeName does: it is evaluated once per event on the event's
  /// object, and an event it rejects costs this watcher nothing — no
  /// delivery, no hub slot.
  ///
  /// Every watcher a write selects is handed the same immutable event; a
  /// watcher that keeps the object past its callback copies it.
  WatchId Watch(WatchFn fn, WatchSelector selector = nullptr) {
    const WatchId id = next_watch_++;
    auto& watcher = watchers_[id];
    watcher.fn = std::move(fn);
    watcher.selector = std::move(selector);
    for (const auto& [name, obj] : objects_) {
      if (watcher.Selects(obj)) {
        Deliver(id, std::make_shared<const WatchEvent<T>>(
                        WatchEvent<T>{WatchEventType::kAdded, obj}));
      }
    }
    return id;
  }

  void Unwatch(WatchId id) { watchers_.erase(id); }

  /// Registers a synchronous write observer, the store's own index rather
  /// than a watch: `fn(before, after)` runs inside every accepted write —
  /// (null, stored) on Create, (old, new) on Update before the assignment,
  /// (old, null) on Delete before the erase — and DropEvents does not skip
  /// it. Registration replays every stored object as (null, obj) in name
  /// order. The callback must not write to a store or (un)register.
  ObserverId Observe(ObserveFn fn) {
    for (const auto& [name, obj] : objects_) fn(nullptr, &obj);
    observers_.emplace_back(next_observer_, std::move(fn));
    return next_observer_++;
  }

  void Unobserve(ObserverId id) {
    std::erase_if(observers_, [id](const auto& o) { return o.first == id; });
  }

  std::uint64_t version() const { return version_; }

  /// Fault injection: overrides the watch-notification latency (an
  /// apiserver latency spike degrades every informer downstream). The
  /// change applies to notifications sent after the call; after a drop,
  /// they wait for the last in-flight delivery (see the watch contract).
  void SetNotifyLatency(Duration latency) { notify_latency_ = latency; }
  Duration notify_latency() const { return notify_latency_; }

  /// Fault injection: silently discards the next `count` store mutations'
  /// watch notifications (no watcher sees them — the event is lost at the
  /// apiserver, as a dropped watch stream loses it). The store itself stays
  /// consistent; only controllers relying on the watch go stale, which is
  /// exactly what a reconcile/resync pass must repair.
  void DropEvents(int count) { drop_pending_ += count; }
  std::uint64_t dropped_events() const { return dropped_events_; }

  /// Optimistic-concurrency rejections issued by Update/Delete.
  std::uint64_t update_conflicts() const { return update_conflicts_; }

  /// The hub carrying this store's deliveries. Shared hubs aggregate
  /// across every store wired to them.
  WatchHub* watch_hub() { return hub_; }

  /// Individual (event, selected watcher) deliveries this store has made.
  std::uint64_t watch_deliveries() const { return watch_deliveries_; }

  FencingGate& fencing() { return fencing_; }
  const FencingGate& fencing() const { return fencing_; }

 private:
  Status CheckFencing(std::uint64_t token) {
    if (fencing_.Admits(token)) return Status::Ok();
    fencing_.RecordRejection();
    return ConflictError("fenced write rejected: token " +
                         std::to_string(token) + " below floor " +
                         std::to_string(fencing_.floor()));
  }

  void Notify(WatchEvent<T> event) {
    if (drop_pending_ > 0) {
      --drop_pending_;
      ++dropped_events_;
      return;
    }
    // Snapshot the selected watcher ids; a watcher registered during
    // delivery must not observe this event twice (it replays current state
    // instead).
    std::vector<WatchId> ids;
    ids.reserve(watchers_.size());
    for (const auto& [id, watcher] : watchers_) {
      if (watcher.Selects(event.object)) ids.push_back(id);
    }
    if (ids.empty()) return;
    // One immutable event per write, shared by every delivery.
    const auto shared = std::make_shared<const WatchEvent<T>>(std::move(event));
    for (const WatchId id : ids) Deliver(id, shared);
  }

  /// One (event, watcher) delivery. Clamping to the last delivery time keeps
  /// the watch contract when the latency drops, because the hub runs
  /// same-instant deliveries in enqueue order.
  void Deliver(WatchId id, std::shared_ptr<const WatchEvent<T>> event) {
    ++watch_deliveries_;
    last_delivery_ = std::max(last_delivery_, sim_->Now() + notify_latency_);
    hub_->Enqueue(last_delivery_, [this, id, event = std::move(event)] {
      auto it = watchers_.find(id);
      if (it == watchers_.end()) return;
      it->second.fn(*event);
    });
  }

  sim::Simulation* sim_;
  Duration notify_latency_;
  WatchHub* hub_ = nullptr;
  std::unique_ptr<WatchHub> owned_hub_;
  Time last_delivery_ = kTimeZero;
  std::uint64_t watch_deliveries_ = 0;

  struct Watcher {
    WatchFn fn;
    WatchSelector selector;  // null: every event
    bool Selects(const T& object) const {
      return !selector || selector(object);
    }
  };

  std::map<std::string, T> objects_;
  std::map<WatchId, Watcher> watchers_;
  std::vector<std::pair<ObserverId, ObserveFn>> observers_;
  std::uint64_t next_uid_ = 1;
  std::uint64_t version_ = 0;
  WatchId next_watch_ = 1;
  ObserverId next_observer_ = 1;
  int drop_pending_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t update_conflicts_ = 0;
  FencingGate fencing_;
};

/// Read-modify-write with bounded retries — the standard controller write
/// path under optimistic concurrency (client-go's RetryOnConflict). Each
/// attempt re-reads the current object, applies `mutate`, and submits the
/// result carrying the freshly-read resource_version; a Conflict means a
/// concurrent writer moved the object, so the loop re-reads and tries
/// again. The apiserver is synchronous in this reproduction, so the
/// re-read always observes the winning write and the loop converges in one
/// retry — the bound exists to turn a logic bug (a mutator that always
/// conflicts) into an error instead of livelock.
///
/// `mutate` has signature Status(T&). Returning a non-OK status aborts the
/// loop and surfaces that status (the hook for "stop retrying, the object
/// became terminal"). Fencing rejections are NOT retried: a floor only
/// rises, so a deposed leader re-submitting the same stale token can never
/// succeed — the conflict is returned immediately.
template <typename T, typename MutateFn>
Status RetryOnConflict(ObjectStore<T>& store, const std::string& name,
                       MutateFn&& mutate, std::uint64_t fencing_token = 0,
                       int max_attempts = 5) {
  Status last = InternalError("RetryOnConflict: no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    auto object = store.Get(name);
    if (!object.ok()) return object.status();
    KS_RETURN_IF_ERROR(mutate(*object));
    last = store.Update(*std::move(object), fencing_token);
    if (last.code() != StatusCode::kConflict) return last;
    if (!store.fencing().Admits(fencing_token)) return last;  // deposed
  }
  return last;
}

/// Conditional delete with the same retry discipline: re-reads the object,
/// consults `approve` (Status(const T&) — non-OK aborts, e.g. "someone
/// else already repurposed the name"), and deletes at the observed
/// version.
template <typename T, typename ApproveFn>
Status RetryDeleteOnConflict(ObjectStore<T>& store, const std::string& name,
                             ApproveFn&& approve,
                             std::uint64_t fencing_token = 0,
                             int max_attempts = 5) {
  Status last = InternalError("RetryDeleteOnConflict: no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    auto object = store.Get(name);
    if (!object.ok()) return object.status();
    KS_RETURN_IF_ERROR(approve(*object));
    last = store.Delete(name, object->meta.resource_version, fencing_token);
    if (last.code() != StatusCode::kConflict) return last;
    if (!store.fencing().Admits(fencing_token)) return last;  // deposed
  }
  return last;
}

}  // namespace ks::k8s
