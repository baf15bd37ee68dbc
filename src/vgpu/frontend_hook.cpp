#include "vgpu/frontend_hook.hpp"

#include <cassert>
#include <utility>

#include "common/log.hpp"

namespace ks::vgpu {

FrontendHook::FrontendHook(cuda::CudaApi* inner, TokenBackend* backend,
                           ContainerId container, GpuUuid device,
                           ResourceSpec spec,
                           std::uint64_t device_memory_bytes)
    : inner_(inner),
      backend_(backend),
      container_(std::move(container)),
      device_(std::move(device)),
      spec_(spec),
      memory_quota_bytes_(static_cast<std::uint64_t>(
          static_cast<double>(device_memory_bytes) * spec.gpu_mem)) {
  assert(inner_ != nullptr);
  assert(backend_ != nullptr);
  auto handle = backend_->RegisterContainer(container_, device_, spec_, this);
  token_ = handle.value_or({});
  if (!handle.ok()) {
    KS_LOG(kError) << "frontend registration failed: " << handle.status();
  }
}

FrontendHook::~FrontendHook() {
  if (swap_ != nullptr) {
    // An in-flight migration lives in the inner driver's prefetch lane; the
    // CudaContext destructor detaches its callback via DetachOwner.
    swap_->FreeAll(container_);
  }
  if (adv_event_ != sim::kInvalidEvent) adv_sim_->Cancel(adv_event_);
  (void)backend_->UnregisterContainer(container_);
}

void FrontendHook::SetAdversarial(const AdversarialSpec& spec,
                                  sim::Simulation* sim) {
  assert(sim != nullptr);
  const bool dropped_overstay =
      adversarial_ && adversarial_->overstay && !spec.overstay;
  adversarial_ = spec;
  adv_sim_ = sim;
  if (dropped_overstay && token_valid_ && Now() >= expiry_) {
    OnTokenExpired();  // the zombie grant dies with the overstay behavior
  }
  if (adv_event_ != sim::kInvalidEvent) adv_sim_->Cancel(adv_event_);
  adv_event_ = adv_sim_->ScheduleAfter(spec.attack_period, [this] {
    adv_event_ = sim::kInvalidEvent;
    AttackTick();
  });
}

void FrontendHook::ClearAdversarial() {
  if (!adversarial_) return;
  const bool was_overstay = adversarial_->overstay;
  adversarial_.reset();
  if (adv_event_ != sim::kInvalidEvent) {
    adv_sim_->Cancel(adv_event_);
    adv_event_ = sim::kInvalidEvent;
  }
  if (was_overstay && token_valid_ && Now() >= expiry_) {
    // The grant this hook kept alive past its expiry is a zombie — drop it
    // through the same path a delivered expiry would have taken. If the
    // backend already fenced and force-reclaimed it, the release below is a
    // harmless no-op on a non-holder.
    OnTokenExpired();
  }
}

void FrontendHook::AttackTick() {
  if (!adversarial_) return;
  ++attack_ticks_;
  const AdversarialSpec spec = *adversarial_;
  if (spec.kernel_flood) {
    // Straight to the driver, bypassing the hook's token-gated queues —
    // the device-side token gate is the only thing standing.
    (void)inner_->LaunchKernel(spec.flood_kernel, nullptr);
  }
  if (spec.memory_probe) {
    // Probe past the quota without touching this hook's ledger (the
    // client-side check is ours to skip). A successful probe is freed
    // immediately — the attack is the attempt, not the hoard.
    gpu::DevicePtr probe = 0;
    if (inner_->MemAlloc(&probe, spec.probe_bytes) ==
        cuda::CudaResult::kSuccess) {
      (void)inner_->MemFree(probe);
    }
  }
  if (spec.metrics_spoof) {
    backend_->ReportUsage(container_,
                          backend_->UsageOf(container_) * spec.spoof_factor);
  }
  if (spec.overstay && token_valid_) {
    Drain();  // keep pushing work on the (possibly zombie) grant
  }
  adv_event_ = adv_sim_->ScheduleAfter(spec.attack_period, [this] {
    adv_event_ = sim::kInvalidEvent;
    AttackTick();
  });
}

void FrontendHook::EnableMemoryOvercommit(SwapManager* swap,
                                          sim::Simulation* sim) {
  assert(swap != nullptr && sim != nullptr);
  assert(allocated_bytes_ == 0 &&
         "enable over-commitment before the first allocation");
  swap_ = swap;
  sim_ = sim;
}

cuda::CudaResult FrontendHook::MemAlloc(gpu::DevicePtr* out,
                                        std::uint64_t bytes) {
  if (out == nullptr || bytes == 0) {
    return cuda::CudaResult::kErrorInvalidValue;
  }
  if (allocated_bytes_ + bytes > memory_quota_bytes_) {
    // Paper §4.5: "our frontend module simply throws out of memory
    // exceptions when a container attempts to allocate more space than it
    // requests" — translated to the driver API's error code.
    ++oom_rejections_;
    return cuda::CudaResult::kErrorOutOfMemory;
  }
  if (swap_ != nullptr) {
    // Over-commitment mode: the SwapManager backs the allocation; host
    // memory is the overflow, so only the per-container quota applies —
    // plus the cluster's oversubscription bound, when one is configured.
    const Status s = swap_->Allocate(container_, bytes);
    if (!s.ok()) {
      if (s.code() == StatusCode::kResourceExhausted) {
        ++oom_rejections_;
        return cuda::CudaResult::kErrorOutOfMemory;
      }
      return cuda::CudaResult::kErrorInvalidValue;
    }
    *out = next_swap_ptr_++;
    allocated_bytes_ += bytes;
    ptr_bytes_[*out] = bytes;
    return cuda::CudaResult::kSuccess;
  }
  const cuda::CudaResult r = inner_->MemAlloc(out, bytes);
  if (r == cuda::CudaResult::kSuccess) {
    allocated_bytes_ += bytes;
    ptr_bytes_[*out] = bytes;
  }
  return r;
}

cuda::CudaResult FrontendHook::MemFree(gpu::DevicePtr ptr) {
  if (swap_ != nullptr) {
    auto it = ptr_bytes_.find(ptr);
    if (it == ptr_bytes_.end()) return cuda::CudaResult::kErrorInvalidValue;
    (void)swap_->Free(container_, it->second);
    allocated_bytes_ -= it->second;
    ptr_bytes_.erase(it);
    return cuda::CudaResult::kSuccess;
  }
  const cuda::CudaResult r = inner_->MemFree(ptr);
  if (r == cuda::CudaResult::kSuccess) {
    auto it = ptr_bytes_.find(ptr);
    if (it != ptr_bytes_.end()) {
      allocated_bytes_ -= it->second;
      ptr_bytes_.erase(it);
    }
  }
  return r;
}

cuda::CudaResult FrontendHook::ArrayCreate(gpu::DevicePtr* out,
                                           std::uint64_t width,
                                           std::uint64_t height,
                                           std::uint64_t element_bytes) {
  if (width == 0 || height == 0 || element_bytes == 0) {
    return cuda::CudaResult::kErrorInvalidValue;
  }
  // Route through our MemAlloc so the quota check covers array creation —
  // the paper's hook intercepts cuArrayCreate for the same reason.
  return MemAlloc(out, width * height * element_bytes);
}

cuda::CudaResult FrontendHook::MemPrefetch(std::uint64_t bytes,
                                           Duration duration,
                                           cuda::HostFn on_complete) {
  // Pass-through: migrations charged by this hook (OnTokenGranted) or by a
  // workload directly land in the driver's migration lane unchanged.
  return inner_->MemPrefetch(bytes, duration, std::move(on_complete));
}

cuda::CudaResult FrontendHook::LaunchKernelStream(const gpu::KernelDesc& desc,
                                                  int count,
                                                  cuda::HostFn on_unit) {
  if (desc.nominal_duration.count() <= 0 || count <= 0) {
    return cuda::CudaResult::kErrorInvalidValue;
  }
  pending_kernels_ += static_cast<std::size_t>(count);
  // Only the units that must wait for the token, a migration or the unit
  // in flight are queued.
  if (token_valid_ && !swap_pending_ && !in_flight_ && pending_.empty()) {
    count = ForwardFirst(desc, count, on_unit);
    if (count == 0) return cuda::CudaResult::kSuccess;
  }
  pending_.push_back(PendingEntry{count, desc, std::move(on_unit)});
  if (token_valid_) {
    Drain();
  } else if (!token_held_ && !token_requested_) {
    token_requested_ = true;
    (void)backend_->RequestToken(token_);
  }
  return cuda::CudaResult::kSuccess;
}

std::size_t FrontendHook::CancelPending() {
  std::size_t cancelled = 0;
  for (const PendingEntry& e : pending_) {
    cancelled += static_cast<std::size_t>(e.count);
  }
  pending_.clear();
  pending_kernels_ -= cancelled;
  MaybeReleaseOrRerequest();
  return cancelled;
}

Time FrontendHook::Now() const { return inner_->Now(); }

int FrontendHook::ForwardFirst(const gpu::KernelDesc& desc, int count,
                               cuda::HostFn& fn) {
  in_flight_ = true;
  const cuda::CudaResult r =
      inner_->LaunchKernel(desc, [this] { OnKernelRetired(); });
  if (r != cuda::CudaResult::kSuccess) {
    KS_LOG(kError) << "inner launch failed: " << cuda::CudaResultName(r);
    in_flight_ = false;
    pending_kernels_ -= static_cast<std::size_t>(count);
    return 0;
  }
  in_flight_fn_ = count == 1 ? std::move(fn) : fn;  // a copy if more follow
  return count - 1;
}

void FrontendHook::Drain() {
  while (token_valid_ && !swap_pending_ && !in_flight_ && !pending_.empty()) {
    PendingEntry& head = pending_.front();
    head.count = ForwardFirst(head.desc, head.count, head.fn);
    if (head.count == 0) pending_.pop_front();
  }
}

void FrontendHook::OnKernelRetired() {
  in_flight_ = false;
  cuda::HostFn fn = std::move(in_flight_fn_);
  --pending_kernels_;
  if (fn) fn();
  Drain();
  MaybeReleaseOrRerequest();
}

void FrontendHook::MaybeReleaseOrRerequest() {
  if (!token_held_) {
    // Kernel retired after the token was already released/expired; if work
    // remains, get back in line.
    if (HasQueuedWork() && !token_requested_) {
      token_requested_ = true;
      (void)backend_->RequestToken(token_);
    }
    return;
  }
  if (in_flight_) return;
  if (token_valid_ && HasQueuedWork()) return;  // keep running
  // Either the quota expired (yield once in-flight work retired) or the
  // queues drained (early release — "revoked by its holder").
  token_held_ = false;
  token_valid_ = false;
  // Re-request BEFORE releasing: the release triggers the backend's next
  // grant decision, and this container's remaining work must be in that
  // comparison (otherwise two sharers strictly alternate and the
  // gpu_request priorities never engage).
  if (HasQueuedWork() && !token_requested_) {
    token_requested_ = true;
    (void)backend_->RequestToken(token_);
  }
  (void)backend_->ReleaseToken(token_);
}

void FrontendHook::OnTokenGranted(Time expiry) {
  token_requested_ = false;
  token_held_ = true;
  token_valid_ = true;
  expiry_ = expiry;
  if (!HasQueuedWork() && !in_flight_) {
    // The workload cancelled its queued kernels (CancelPending) while the
    // request waited; give the token straight back.
    token_held_ = false;
    token_valid_ = false;
    (void)backend_->ReleaseToken(token_);
    return;
  }
  if (swap_ != nullptr) {
    // Bring the working set on-device before any kernel runs. The quota is
    // extended by the migration time — the time slice covers compute;
    // otherwise a migration longer than the quota would expire every grant
    // before a single kernel launches (thrash with zero progress). The
    // returned duration already includes any queueing delay on the shared
    // host<->device link (concurrent migrations serialize).
    const Duration migration = swap_->MakeResident(container_, sim_->Now());
    const std::uint64_t moved = swap_->last_migration_bytes();
    if (moved > 0) backend_->ReportSwapBytes(container_, moved);
    if (migration.count() > 0) {
      (void)backend_->ExtendQuota(container_, migration);
      swap_pending_ = true;
      // Charge the transfer into the device's migration lane so both sim
      // engines account the bus time identically (and NVML sees the device
      // busy while pages move).
      (void)inner_->MemPrefetch(moved, migration, [this] {
        swap_pending_ = false;
        Drain();  // no-ops if the token lapsed during the migration
      });
      return;
    }
  }
  Drain();
}

void FrontendHook::OnTokenExpired() {
  if (adversarial_ && adversarial_->overstay) {
    // Hostile: pretend the expiry never arrived and keep submitting. The
    // zombie grant lives until the device fences the token epoch at the
    // backend's fence deadline (expiry + fence_grace), after which every
    // forwarded kernel is dropped on the floor — this hook's in-flight
    // accounting wedges by design; recovery is clamp-down/eviction, not
    // forgiveness.
    return;
  }
  token_valid_ = false;
  MaybeReleaseOrRerequest();
}

void FrontendHook::OnBackendRestart() {
  // Any token this frontend believed it held died with the daemon; the
  // rebuilt backend knows no holder. Reset and get back in line — kernels
  // already on the device retire on their own (non-preemptive).
  token_valid_ = false;
  token_held_ = false;
  token_requested_ = false;
  token_ = backend_->HandleOf(container_);
  if (HasQueuedWork()) {
    token_requested_ = true;
    (void)backend_->RequestToken(token_);
  }
}

}  // namespace ks::vgpu
