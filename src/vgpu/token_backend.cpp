#include "vgpu/token_backend.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/log.hpp"
#include "gpu/device.hpp"

namespace ks::vgpu {

TokenBackend::TokenBackend(sim::Simulation* sim, BackendConfig config)
    : sim_(sim), config_(config), tq_(config.tq) {
  assert(sim_ != nullptr);
  assert(config_.sm_groups > 0);
}

void TokenBackend::RegisterDevice(const GpuUuid& device) {
  EnsureDevice(device);
}

TokenBackend::DeviceState& TokenBackend::EnsureDevice(const GpuUuid& device) {
  auto [it, inserted] = devices_.try_emplace(device);
  if (inserted) it->second.id = device;
  return it->second;
}

Expected<TokenBackend::Handle> TokenBackend::RegisterContainer(
    const ContainerId& container, const GpuUuid& device,
    const ResourceSpec& spec, TokenClient* client) {
  KS_RETURN_IF_ERROR(spec.Validate());
  if (client == nullptr) return InvalidArgumentError("null token client");
  if (containers_.count(container) > 0) {
    return AlreadyExistsError("container already registered: " +
                              container.value());
  }
  if (down_) {
    // The daemon is restarting; the frontend's connect parks until it is
    // back, then it is admitted with the reattach batch.
    if (pending_reattach_.count(container) > 0) {
      return AlreadyExistsError("container already registered: " +
                                container.value());
    }
    pending_reattach_[container] = {device, spec, client};
    return Handle{};
  }
  if (free_records_.empty()) {
    free_records_.push_back(
        records_.emplace_back(std::make_unique<ContainerState>()).get());
  }
  ContainerState& state = *free_records_.back();
  free_records_.pop_back();
  state = {container, &EnsureDevice(device), config_.usage_window};
  state.registration = ++registrations_;
  containers_.emplace(container, &state);
  state.spec = spec;
  state.client = client;
  if (Enforcing()) {
    if (gpu::GpuDevice* d = ResolveDevice(device)) {
      // Gate closed (no admitted epoch) until the first grant; the memory
      // quota is the server-side wall the bypassable frontend hook only
      // mirrors. Re-registration after a daemon restart keeps an existing
      // gate's state (EnforceTokenGate is emplace-only), so fenced epochs
      // stay fenced across the restart.
      d->EnforceTokenGate(container);
      d->SetMemoryQuota(
          container,
          static_cast<std::uint64_t>(std::llround(
              spec.gpu_mem * static_cast<double>(d->spec().memory_bytes))));
    }
  }
  return Handle(&state, state.registration);
}

TokenBackend::Handle TokenBackend::HandleOf(
    const ContainerId& container) const {
  ContainerState* state = Find(container);
  return state == nullptr ? Handle{} : Handle(state, state->registration);
}

TokenBackend::ContainerState* TokenBackend::Find(
    const ContainerId& container) const {
  const auto it = containers_.find(container);
  return it == containers_.end() ? nullptr : it->second;
}

void TokenBackend::FreeRecord(ContainerState& state) {
  containers_.erase(state.id);
  // Blank before the free list: registration 0 and no hold, so no handle
  // or timer of the container matches, and none of its memory is kept.
  state = ContainerState();
  free_records_.push_back(&state);
}

Status TokenBackend::UnregisterContainer(const ContainerId& container) {
  // A container dying while the daemon is down (or before its reattach
  // fires) must not be resurrected by the restart path.
  const bool was_pending = pending_reattach_.erase(container) > 0;
  ContainerState* state = Find(container);
  if (state == nullptr) {
    if (was_pending) return Status::Ok();
    return NotFoundError("container not registered: " + container.value());
  }
  DeviceState& dev = *state->dev;
  dev.queue.erase(std::remove(dev.queue.begin(), dev.queue.end(), state),
                  dev.queue.end());
  // A reeval poll armed for a queue this unregistration just emptied would
  // otherwise dangle until it fired as a no-op.
  CancelIdleReeval(dev);
  if (Enforcing()) {
    // The container is gone (OOM-kill, node crash, eviction teardown):
    // its gate and quota leave the device with it. Its violation ledger
    // entry stays — unregistering is not absolution, and a requeued
    // successor under the same id inherits the record.
    if (gpu::GpuDevice* d = ResolveDevice(dev.id)) {
      d->LiftTokenGate(container);
      d->ClearMemoryQuota(container);
    }
  }
  const bool held = state->holding;
  if (held) EndHold(*state, /*settle=*/false, sim_->Now());
  FreeRecord(*state);
  if (held) TryGrant(dev);
  return Status::Ok();
}

Status TokenBackend::UpdateSpec(const ContainerId& container,
                                const ResourceSpec& spec) {
  KS_RETURN_IF_ERROR(spec.Validate());
  ContainerState* state = Find(container);
  if (state == nullptr) {
    // A container parked across a restart comes back with the resized
    // spec, not the one it was parked with.
    const auto parked = pending_reattach_.find(container);
    if (parked == pending_reattach_.end()) {
      return NotFoundError("container not registered: " + container.value());
    }
    parked->second.spec.gpu_request = spec.gpu_request;
    parked->second.spec.gpu_limit = spec.gpu_limit;
    return Status::Ok();
  }
  state->spec.gpu_request = spec.gpu_request;
  state->spec.gpu_limit = spec.gpu_limit;
  // A raised limit may unblock throttled waiters right away.
  TryGrant(*state->dev);
  return Status::Ok();
}

Status TokenBackend::RequestToken(const Handle& handle) {
  ContainerState* record = handle.record_;
  if (record == nullptr || record->registration != handle.registration_) {
    return NotFoundError("container not registered");
  }
  ContainerState& state = *record;
  DeviceState& dev = *state.dev;
  if (state.holding && (state.hold.valid || state.hold.in_flight)) {
    return Status::Ok();  // already holding (or being granted) a valid token
  }
  // An expired holder may queue BEFORE it releases: its re-request must be
  // on the table when the release triggers the next grant decision, or a
  // two-container device degenerates to strict alternation and gpu_request
  // pinning never engages (the releaser would always be absent from the
  // queue the policy chooses from).
  if (state.queued) return Status::Ok();
  state.queued = true;
  state.enqueue_seq = next_seq_++;
  dev.queue.push_back(&state);
  TryGrant(dev);
  return Status::Ok();
}

Status TokenBackend::ReleaseToken(const Handle& handle) {
  ContainerState* record = handle.record_;
  if (record == nullptr || record->registration != handle.registration_) {
    return NotFoundError("container not registered");
  }
  ContainerState& state = *record;
  DeviceState& dev = *state.dev;
  if (!state.holding) {
    return FailedPreconditionError("container does not hold the token: " +
                                   state.id.value());
  }
  const Time now = sim_->Now();
  EndHold(state, /*settle=*/true, now);
  if (Enforcing()) {
    // Clean close of the gate: submits between this release and the next
    // grant are rejected (that is the flood containment), without counting
    // an overstay against a polite releaser.
    if (gpu::GpuDevice* d = ResolveDevice(dev.id)) {
      d->FenceTokenEpoch(state.id);
    }
  }
  Trace("release", state.id, now);
  TryGrant(dev);
  return Status::Ok();
}

TokenBackend::ContainerStats TokenBackend::StatsOf(
    const ContainerId& container) const {
  const ContainerState* state = Find(container);
  return state == nullptr ? ContainerStats{} : state->stats;
}

Status TokenBackend::ExtendQuota(const ContainerId& container,
                                 Duration extra) {
  ContainerState* record = Find(container);
  if (record == nullptr) {
    return NotFoundError("container not registered: " + container.value());
  }
  ContainerState& state = *record;
  if (!state.holding || !state.hold.valid) {
    return FailedPreconditionError("container holds no valid token: " +
                                   container.value());
  }
  if (extra.count() <= 0) return Status::Ok();
  state.hold.expiry += extra;
  ArmExpiry(state, /*at_handoff=*/false);
  return Status::Ok();
}

double TokenBackend::UsageOf(const ContainerId& container) const {
  const ContainerState* state = Find(container);
  return state == nullptr ? 0.0 : state->usage.Usage(sim_->Now());
}

std::optional<ContainerId> TokenBackend::HolderOf(const GpuUuid& device) const {
  auto it = devices_.find(device);
  if (it == devices_.end() || it->second.holders.empty()) return std::nullopt;
  const std::vector<ContainerState*>& holders = it->second.holders;
  return (*std::min_element(holders.begin(), holders.end(),
                            [](const ContainerState* a,
                               const ContainerState* b) {
                              return a->id < b->id;
                            }))
      ->id;
}

std::size_t TokenBackend::ActiveHolders(const GpuUuid& device) const {
  auto it = devices_.find(device);
  return it == devices_.end() ? 0 : it->second.holders.size();
}

std::size_t TokenBackend::QueueLength(const GpuUuid& device) const {
  auto it = devices_.find(device);
  if (it == devices_.end()) return 0;
  return it->second.queue.size();
}

std::size_t TokenBackend::pending_timers() const {
  std::size_t n = down_ ? 1 : 0;  // the restart come-back deadline
  for (const auto& [device_id, dev] : devices_) {
    if (dev.reeval_event != sim::kInvalidEvent) ++n;
    for (const ContainerState* holder : dev.holders) {
      const Hold& hold = holder->hold;
      if (hold.in_flight) ++n;  // the grant hand-off
      if (hold.expiry_event != sim::kInvalidEvent) ++n;
      if (hold.fence_event != sim::kInvalidEvent) ++n;
    }
  }
  return n;
}

void TokenBackend::ScheduleReeval(DeviceState& dev) {
  if (dev.reeval_event != sim::kInvalidEvent) return;
  dev.reeval_event =
      sim_->ScheduleAfter(config_.reeval_period, [this, d = &dev] {
        d->reeval_event = sim::kInvalidEvent;
        TryGrant(*d);
      });
}

void TokenBackend::CancelIdleReeval(DeviceState& dev) {
  if (dev.queue.empty() && dev.reeval_event != sim::kInvalidEvent) {
    sim_->Cancel(dev.reeval_event);
    dev.reeval_event = sim::kInvalidEvent;
  }
}

int TokenBackend::ClaimOf(const ContainerState& state) const {
  if (!config_.spatial_enabled || state.spec.slice_groups <= 0) {
    return config_.sm_groups;
  }
  return std::min(state.spec.slice_groups, config_.sm_groups);
}

void TokenBackend::TryGrant(DeviceState& dev) {
  // Grants loop until space or eligibility runs out: one release can admit
  // several small-slice waiters in the same decision. With every claim the
  // whole GPU this is the paper's single-token schedule.
  while (!dev.queue.empty()) {
    const int free = config_.sm_groups - dev.groups_held;
    if (free <= 0) return;  // every claim is at least one group
    const Time now = sim_->Now();
    // One pass evaluates the three-step policy: claims that don't fit the
    // free groups wait for a release (not a reeval poll — window decay
    // can't free groups); step 1 filters requesters at their gpu_limit
    // (measured attribution + clamped specs under enforcement); step 2
    // picks the largest deficit below gpu_request; step 3, when every
    // requester met its minimum, the lowest usage. Ties go to the earliest
    // enqueue. A queued container that still holds is a re-requester
    // racing its own release (the frontend re-requests before releasing):
    // granting it now would stack a second hold on the same entry, so its
    // release re-enters this function and grants it a fresh hold then.
    bool fits = false;
    ContainerState* by_deficit = nullptr;
    double best_deficit = 0.0;
    std::uint64_t deficit_seq = 0;
    ContainerState* by_usage = nullptr;
    double best_usage = 0.0;
    std::uint64_t usage_seq = 0;
    for (ContainerState* s : dev.queue) {
      if (s->holding) continue;
      if (ClaimOf(*s) > free) continue;
      fits = true;
      const double usage = SchedulingUsage(*s, now);
      if (usage >= EffectiveLimit(*s)) continue;
      const double deficit = EffectiveRequest(*s) - usage;
      if (deficit > 0.0 &&
          (by_deficit == nullptr || deficit > best_deficit ||
           (deficit == best_deficit && s->enqueue_seq < deficit_seq))) {
        by_deficit = s;
        best_deficit = deficit;
        deficit_seq = s->enqueue_seq;
      }
      if (by_usage == nullptr || usage < best_usage ||
          (usage == best_usage && s->enqueue_seq < usage_seq)) {
        by_usage = s;
        best_usage = usage;
        usage_seq = s->enqueue_seq;
      }
    }
    if (!fits) return;
    ContainerState* pick = by_deficit != nullptr ? by_deficit : by_usage;
    if (pick == nullptr) {
      // Everyone who fits is throttled; usage decays as the window slides,
      // so check again shortly.
      ScheduleReeval(dev);
      return;
    }
    GrantTo(dev, *pick);
  }
}

void TokenBackend::GrantTo(DeviceState& dev, ContainerState& state) {
  dev.queue.erase(std::remove(dev.queue.begin(), dev.queue.end(), &state),
                  dev.queue.end());
  state.queued = false;
  state.holding = true;
  Hold& hold = state.hold;
  hold = Hold{};
  hold.serial = ++grants_;
  hold.in_flight = true;
  hold.groups = ClaimOf(state);
  dev.groups_held += hold.groups;
  dev.holders.push_back(&state);
  peak_holders_ = std::max(peak_holders_, dev.holders.size());

  // The hand-off costs one exchange latency, during which the holder's
  // groups sit idle; the token is valid from the end of the exchange for
  // one quota.
  sim_->ScheduleAfterFixed(config_.exchange_latency, [this, record = &state,
                                                      serial = hold.serial] {
    // The hold may have ended meanwhile (released, unregistered, dropped
    // by a restart), and a later grant may hold the record by now.
    ContainerState* s = HolderBySerial(record, serial);
    if (s == nullptr) return;
    Hold& h = s->hold;
    const Time now = sim_->Now();
    h.in_flight = false;
    h.valid = true;
    h.expiry = now + GrantQuotaFor(s->dev->id, h.groups);
    s->grant_time = now;
    ++s->stats.grants;
    s->usage.Start(now);
    if (Enforcing()) {
      // Open the device gate for this grant only: a fresh monotonic epoch
      // is admitted, and the overstay deadline (armed with the expiry) sits
      // one fence_grace past the quota so a polite overrun (one
      // non-preemptive kernel) never trips it.
      if (gpu::GpuDevice* gd = ResolveDevice(s->dev->id)) {
        gd->AdmitTokenEpoch(s->id, ++token_epoch_);
      }
    }
    ArmExpiry(*s, /*at_handoff=*/true);
    Trace("grant", s->id, h.expiry);
    s->client->OnTokenGranted(h.expiry);
  });
}

void TokenBackend::ArmExpiry(ContainerState& holder, bool at_handoff) {
  Hold& hold = holder.hold;
  const auto on_expiry = [this, record = &holder, serial = hold.serial] {
    if (ContainerState* s = HolderBySerial(record, serial)) OnExpiry(*s);
  };
  sim_->Cancel(hold.expiry_event);
  hold.expiry_event =
      at_handoff ? sim_->ScheduleAfterFixed(hold.expiry - sim_->Now(),
                                            on_expiry)
                 : sim_->ScheduleAt(hold.expiry, on_expiry);
  if (!Enforcing()) return;
  const auto on_fence = [this, record = &holder, serial = hold.serial] {
    if (ContainerState* s = HolderBySerial(record, serial)) {
      OnFenceDeadline(*s);
    }
  };
  const Time fence_at = hold.expiry + config_.enforcement.fence_grace;
  sim_->Cancel(hold.fence_event);
  hold.fence_event =
      at_handoff ? sim_->ScheduleAfterFixed(fence_at - sim_->Now(), on_fence)
                 : sim_->ScheduleAt(fence_at, on_fence);
}

void TokenBackend::EndHold(ContainerState& holder, bool settle, Time now) {
  const Hold& hold = holder.hold;
  if (settle) {
    // Hold accounting: total hold time and the slice past the quota
    // deadline (overrun from non-preemptive kernels).
    holder.usage.Stop(now);
    if (now > holder.grant_time) {
      holder.stats.held_total += now - holder.grant_time;
    }
    if (!hold.valid && !hold.in_flight && now > hold.expiry) {
      holder.stats.overrun_total += now - hold.expiry;
    }
  }
  sim_->Cancel(hold.expiry_event);
  sim_->Cancel(hold.fence_event);
  DeviceState& dev = *holder.dev;
  dev.groups_held -= hold.groups;
  dev.holders.erase(
      std::find(dev.holders.begin(), dev.holders.end(), &holder));
  holder.holding = false;
}

void TokenBackend::OnExpiry(ContainerState& holder) {
  holder.hold.expiry_event = sim::kInvalidEvent;
  holder.hold.valid = false;
  // The holder keeps its groups (and keeps accruing usage) until it
  // releases — its in-flight kernel is non-preemptive.
  Trace("expire", holder.id, sim_->Now());
  holder.client->OnTokenExpired();
}

void TokenBackend::Restart() {
  ++epoch_;  // invalidate in-flight grant hand-offs
  ++restarts_;
  down_ = true;
  Trace("restart", ContainerId(""), sim_->Now());
  // All per-device token state dies with the daemon; pending timers are
  // cancelled so nothing from the old incarnation fires into the new one.
  for (auto& [device_id, dev] : devices_) {
    gpu::GpuDevice* d = Enforcing() ? ResolveDevice(device_id) : nullptr;
    for (const ContainerState* holder : dev.holders) {
      // Every outstanding token dies with the daemon: fence the holders'
      // epochs at the device so nothing can submit on a zombie token
      // during the downtime. Grants of the new incarnation admit fresh
      // (still-monotonic) epochs. Per-owner fencing is order-independent,
      // so iterating the unordered device map here is deterministic.
      if (d != nullptr) d->FenceTokenEpoch(holder->id);
      sim_->Cancel(holder->hold.expiry_event);
      sim_->Cancel(holder->hold.fence_event);
    }
    sim_->Cancel(dev.reeval_event);
    dev.reeval_event = sim::kInvalidEvent;
    dev.queue.clear();
    dev.holders.clear();
    dev.groups_held = 0;
  }
  // Registered frontends become reattach candidates: their sockets
  // reconnect once the daemon is back. Sliding-window usage is lost — the
  // rebuilt daemon starts everyone from a clean slate.
  while (!containers_.empty()) {
    ContainerState& state = *containers_.begin()->second;
    pending_reattach_[state.id] = {state.dev->id, state.spec, state.client};
    FreeRecord(state);
  }
  sim_->ScheduleAfter(config_.restart_downtime, [this, epoch = epoch_] {
    if (epoch != epoch_) return;  // restarted again before coming up
    down_ = false;
    // pending_reattach_ is a sorted map — deterministic reattach order.
    auto batch = std::move(pending_reattach_);
    pending_reattach_.clear();
    for (const auto& [container, info] : batch) {
      if (!RegisterContainer(container, info.device, info.spec, info.client)
               .ok()) {
        continue;
      }
      ++reattached_;
      info.client->OnBackendRestart();
    }
  });
}

// --- Isolation enforcement ----------------------------------------------

gpu::GpuDevice* TokenBackend::ResolveDevice(const GpuUuid& device) const {
  if (!device_resolver_) return nullptr;
  return device_resolver_(device);
}

bool TokenBackend::IsClamped(const ContainerId& container) const {
  const auto it = violations_.find(container);
  return it != violations_.end() && it->second.clamped;
}

double TokenBackend::SchedulingUsage(const ContainerState& state,
                                     Time now) const {
  const double measured = state.usage.Usage(now);
  if (!Enforcing() && state.claimed_usage.has_value()) {
    // Without enforcement the daemon trusts the frontend's self-reported
    // sampler value — an under-reporter looks permanently starved and
    // wins every max-deficit / lowest-usage decision. This is the hole
    // bench_study_isolation demonstrates; polite frontends never report,
    // so pre-enforcement behavior is byte-identical.
    return std::min(measured, *state.claimed_usage);
  }
  return measured;
}

double TokenBackend::EffectiveLimit(const ContainerState& state) const {
  if (Enforcing() && IsClamped(state.id)) {
    return std::min(state.spec.gpu_limit, config_.enforcement.clamp_limit);
  }
  return state.spec.gpu_limit;
}

double TokenBackend::EffectiveRequest(const ContainerState& state) const {
  // A clamped tenant keeps no guaranteed minimum: it only sees residual
  // capacity, below its clamped limit.
  if (Enforcing() && IsClamped(state.id)) return 0.0;
  return state.spec.gpu_request;
}

void TokenBackend::RecordViolation(const ContainerId& container,
                                   ViolationKind kind) {
  if (!Enforcing()) return;
  // Never erased, so the eviction event below may point at the entry's key.
  const auto entry = violations_.try_emplace(container).first;
  IsolationStats& s = entry->second;
  switch (kind) {
    case ViolationKind::kOverstay: ++s.overstays; break;
    case ViolationKind::kFencedSubmit: ++s.fenced_submits; break;
    case ViolationKind::kMemoryQuota: ++s.memory_violations; break;
    case ViolationKind::kMetricsSpoof: ++s.spoofs; break;
  }
  ++violations_total_;
  const EnforcementConfig& e = config_.enforcement;
  if (!s.clamped && e.clamp_threshold > 0 &&
      s.total() >= static_cast<std::uint64_t>(e.clamp_threshold)) {
    s.clamped = true;
    ++clampdowns_total_;
  }
  if (!s.evicted && e.evict_threshold > 0 &&
      s.total() >= static_cast<std::uint64_t>(e.evict_threshold)) {
    s.evicted = true;
    ++evictions_total_;
    if (eviction_fn_) {
      // Deferred one event: violations surface deep inside submit paths
      // (device -> violation fn -> here) and eviction tears the whole
      // workload stack down — re-entering that from under a kernel submit
      // would destroy the very frontend making the call.
      const std::string reason =
          std::string("isolation violations (last: ") + ViolationKindName(kind) +
          ")";
      sim_->ScheduleAfter(Duration{0}, [this, victim = &entry->first, reason] {
        if (eviction_fn_) eviction_fn_(*victim, reason);
      });
    }
  }
}

TokenBackend::IsolationStats TokenBackend::IsolationOf(
    const ContainerId& container) const {
  const auto it = violations_.find(container);
  if (it == violations_.end()) return {};
  return it->second;
}

std::vector<std::pair<ContainerId, TokenBackend::IsolationStats>>
TokenBackend::IsolationLedger() const {
  return {violations_.begin(), violations_.end()};
}

void TokenBackend::ReportUsage(const ContainerId& container, double claimed) {
  ContainerState* state = Find(container);
  if (state == nullptr) return;
  state->claimed_usage = std::max(0.0, claimed);
  if (Enforcing()) {
    // Server-side attribution: the claim never enters scheduling; it is
    // only checked against the daemon's own measurement for under-reports.
    const EnforcementConfig& e = config_.enforcement;
    const double measured = state->usage.Usage(sim_->Now());
    if (measured > e.spoof_floor &&
        claimed < measured * (1.0 - e.spoof_tolerance)) {
      RecordViolation(container, ViolationKind::kMetricsSpoof);
    }
  }
}

void TokenBackend::OnFenceDeadline(ContainerState& holder) {
  holder.hold.fence_event = sim::kInvalidEvent;
  // A clean release or an ExtendQuota re-arm cancels this timer, so firing
  // with a valid token means a stale deadline — ignore it.
  if (holder.hold.valid || holder.hold.in_flight) return;
  // The holder sat on an expired token a full fence_grace past the quota:
  // declare the overstay, fence its epoch at the device (in-flight kernels
  // finish, nothing new is admitted), and reclaim the token so polite
  // waiters stop starving.
  const Time now = sim_->Now();
  DeviceState& dev = *holder.dev;
  EndHold(holder, /*settle=*/true, now);
  if (gpu::GpuDevice* d = ResolveDevice(dev.id)) {
    d->FenceTokenEpoch(holder.id);
  }
  Trace("fence", holder.id, now);
  RecordViolation(holder.id, ViolationKind::kOverstay);
  TryGrant(dev);
}

// --- SLO admission control ------------------------------------------------

TokenBackend::ServingState* TokenBackend::SetServiceSlo(
    const ContainerId& container, Duration slo_p99) {
  if (!config_.admission.enabled) return nullptr;
  ServingState& state =
      serving_.try_emplace(container, config_.admission.window).first->second;
  state.slo_ = slo_p99;
  // Observed p99 is always some bucket's lower edge, and the admit test
  // "edge < headroom * SLO" fails from one bucket upward. Find that bucket
  // once, with the very comparison a p99 scan would make, so AdmitRequest
  // only asks whether p99's bucket reaches it.
  const double threshold = config_.admission.headroom * ToSeconds(slo_p99);
  int mark = 0;
  while (mark < metrics::LatencyDigest::kBuckets &&
         ToSeconds(Duration{static_cast<std::int64_t>(
             metrics::LatencyDigest::LowerEdge(mark))}) < threshold) {
    ++mark;
  }
  state.digest_.SetMark(mark);
  return &state;
}

void TokenBackend::ReportRequestLatency(ServingState* serving, Time now,
                                        Duration latency) {
  if (serving == nullptr) return;
  serving->digest_.Record(now, latency);
}

AdmissionDecision TokenBackend::AdmitRequest(ServingState* serving,
                                             Time now) {
  if (serving == nullptr || serving->slo_.count() <= 0) {
    return AdmissionDecision::kAdmit;
  }
  if (serving->digest_.WindowCount(now) < config_.admission.min_samples) {
    return AdmissionDecision::kAdmit;  // cold start: no trustworthy estimate
  }
  if (!serving->digest_.QuantileReachesMark(now, 0.99)) {
    return AdmissionDecision::kAdmit;
  }
  if (config_.admission.policy == AdmissionConfig::Policy::kQueue) {
    ++admission_queued_;
    return AdmissionDecision::kQueue;
  }
  ++admission_sheds_;
  return AdmissionDecision::kShed;
}

// --- Memory oversubscription (nvshare-TQ) --------------------------------

Duration TokenBackend::GrantQuotaFor(const GpuUuid& device_id, int groups) {
  if (!config_.tq.enabled || groups < config_.sm_groups) return config_.quota;
  return tq_.Engaged(device_id, sim_->Now()) ? config_.tq.quantum
                                             : config_.quota;
}

void TokenBackend::ReportSwapBytes(const ContainerId& container,
                                   std::uint64_t bytes) {
  if (!config_.tq.enabled || bytes == 0) return;
  const ContainerState* state = Find(container);
  if (state == nullptr) return;
  tq_.OnSwapBytes(state->dev->id, bytes, sim_->Now());
}

}  // namespace ks::vgpu
