#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/ids.hpp"
#include "cuda/api.hpp"
#include "vgpu/resource_spec.hpp"
#include "vgpu/swap.hpp"
#include "vgpu/token_backend.hpp"

namespace ks::vgpu {

/// Scripted misbehavior of a hostile tenant (ROADMAP item 5, Guardian
/// direction). The frontend hook is the LD_PRELOAD-analog *client-side*
/// library — a tenant controls its own copy, so a hostile build can simply
/// stop honoring the token protocol. Each flag enables one behavior; the
/// chaos injector arms them for a bounded window via the adversarial
/// FaultKinds, and the enforcement that contains them lives server-side
/// (GpuDevice token gates / memory quotas, TokenBackend attribution).
struct AdversarialSpec {
  /// Ignore OnTokenExpired: keep token_valid_ and keep submitting until
  /// the device fences the epoch (contained as an overstay violation).
  bool overstay = false;
  /// Submit kernels straight to the driver on every attack tick, token or
  /// no token (contained as fenced-submit violations).
  bool kernel_flood = false;
  /// cuMemAlloc past the gpu_mem quota on every attack tick, bypassing
  /// the hook's own ledger (contained by the device memory quota).
  bool memory_probe = false;
  /// Self-report usage * spoof_factor to the backend sampler on every
  /// attack tick (contained by server-side usage attribution).
  bool metrics_spoof = false;
  Duration attack_period = Millis(5);
  gpu::KernelDesc flood_kernel{Millis(1), 0.0, "flood", 1.0};
  std::uint64_t probe_bytes = 1ull << 30;
  double spoof_factor = 0.1;
};

/// The per-container frontend of the vGPU device library (paper §4.5).
///
/// In the real system this is a dynamic library injected with LD_PRELOAD
/// that interposes on every memory- and compute-related CUDA driver call.
/// Here it is a CudaApi decorator installed between the workload and the
/// driver-level CudaContext — the same structural position, so every call
/// the workload makes flows through the same checks:
///
///  - memory calls (MemAlloc / ArrayCreate) are rejected with
///    CUDA_ERROR_OUT_OF_MEMORY once the container's gpu_mem quota would be
///    exceeded (no over-commitment, per the paper);
///  - kernel launches are held in one FIFO until the container holds a
///    valid token from the node's TokenBackend, then forwarded to the
///    driver one unit at a time (a launch that finds the token valid and
///    nothing queued or in flight skips the FIFO); when the token expires
///    the frontend stops submitting, lets the in-flight kernel retire, and
///    releases the token; when its queue drains it releases the token
///    early ("revoked by its holder").
class FrontendHook final : public cuda::CudaApi, public TokenClient {
 public:
  /// `inner` is the driver-level API (not owned). `device_memory_bytes` is
  /// the physical capacity used to convert the fractional gpu_mem into a
  /// byte quota. Registration with the backend happens in the constructor;
  /// the destructor unregisters.
  FrontendHook(cuda::CudaApi* inner, TokenBackend* backend,
               ContainerId container, GpuUuid device, ResourceSpec spec,
               std::uint64_t device_memory_bytes);
  ~FrontendHook() override;

  FrontendHook(const FrontendHook&) = delete;
  FrontendHook& operator=(const FrontendHook&) = delete;

  // --- CudaApi ----------------------------------------------------------
  cuda::CudaResult MemAlloc(gpu::DevicePtr* out, std::uint64_t bytes) override;
  cuda::CudaResult MemFree(gpu::DevicePtr ptr) override;
  cuda::CudaResult ArrayCreate(gpu::DevicePtr* out, std::uint64_t width,
                               std::uint64_t height,
                               std::uint64_t element_bytes) override;
  cuda::CudaResult MemPrefetch(std::uint64_t bytes, Duration duration,
                               cuda::HostFn on_complete) override;
  /// A launch waits in the queue as one counted entry; its units are
  /// forwarded to the driver one at a time while the token is valid.
  cuda::CudaResult LaunchKernelStream(const gpu::KernelDesc& desc, int count,
                                      cuda::HostFn on_unit) override;
  /// Drops the queued units; the one forwarded to the driver retires and
  /// fires its callback. A hook left with nothing queued or in flight
  /// releases its token, and a grant that lands after the cancel is
  /// handed straight back.
  std::size_t CancelPending() override;
  Time Now() const override;

  std::uint64_t AllocatedBytes() const override { return allocated_bytes_; }
  std::size_t PendingKernels() const override { return pending_kernels_; }

  // --- TokenClient --------------------------------------------------------
  void OnTokenGranted(Time expiry) override;
  void OnTokenExpired() override;
  void OnBackendRestart() override;

  // --- Memory over-commitment extension -----------------------------------
  /// Switches memory management to GPUswap-style over-commitment
  /// (DESIGN.md extension; paper §4.5 points at [4,19,32]): allocations
  /// are served by the device's shared SwapManager instead of the physical
  /// ledger, and each token grant first migrates this container's working
  /// set on-device — kernel submission is delayed by the migration time.
  /// Must be called before the first allocation; `swap` is shared by every
  /// container on the device.
  void EnableMemoryOvercommit(SwapManager* swap, sim::Simulation* sim);

  // --- Adversarial-client extension ----------------------------------------
  /// Turns this hook hostile: arms a repeating attack tick (every
  /// `spec.attack_period`) that performs the enabled behaviors, plus the
  /// passive overstay behavior in OnTokenExpired. Driven by the chaos
  /// injector's adversarial FaultKinds; deterministic (pure sim events).
  void SetAdversarial(const AdversarialSpec& spec, sim::Simulation* sim);
  /// Back to polite: cancels the attack tick and, if overstaying on a dead
  /// token, drops the zombie token state and re-enters the normal
  /// request/release protocol.
  void ClearAdversarial();
  bool adversarial() const { return adversarial_.has_value(); }
  /// The active misbehavior set, or nullptr when polite — lets the chaos
  /// injector compose flags across overlapping adversarial faults.
  const AdversarialSpec* adversarial_spec() const {
    return adversarial_ ? &*adversarial_ : nullptr;
  }
  std::uint64_t attack_ticks() const { return attack_ticks_; }

  // --- Introspection ------------------------------------------------------
  bool holds_valid_token() const { return token_valid_; }
  std::uint64_t memory_quota_bytes() const { return memory_quota_bytes_; }
  const ContainerId& container() const { return container_; }
  const GpuUuid& device() const { return device_; }
  /// Allocations rejected with CUDA_ERROR_OUT_OF_MEMORY before they reach
  /// the driver: over the gpu_mem quota or, under memory over-commitment,
  /// over the oversubscription bound.
  std::uint64_t oom_rejections() const { return oom_rejections_; }

 private:
  /// A queued launch: `count` not-yet-forwarded units and their per-unit
  /// callback.
  struct PendingEntry {
    int count = 1;
    gpu::KernelDesc desc;
    cuda::HostFn fn;
  };

  /// Forwards the first of `count` units, taking its callback from `fn`.
  /// Returns the units left to forward: 0 also when the driver refused the
  /// launch, which drops the whole launch.
  int ForwardFirst(const gpu::KernelDesc& desc, int count, cuda::HostFn& fn);
  /// Forwards queued units while the token is valid and nothing is in
  /// flight.
  void Drain();
  void OnKernelRetired();
  void MaybeReleaseOrRerequest();
  bool HasQueuedWork() const { return !pending_.empty(); }
  void AttackTick();

  cuda::CudaApi* inner_;
  TokenBackend* backend_;
  /// This container's record at the backend; re-resolved after a restart.
  TokenBackend::Handle token_;
  ContainerId container_;
  GpuUuid device_;
  ResourceSpec spec_;
  std::uint64_t memory_quota_bytes_;

  std::uint64_t allocated_bytes_ = 0;
  std::unordered_map<gpu::DevicePtr, std::uint64_t> ptr_bytes_;
  std::uint64_t oom_rejections_ = 0;

  std::deque<PendingEntry> pending_;
  /// A unit forwarded to the driver and not yet retired, and its callback
  /// (taken from its entry).
  bool in_flight_ = false;
  cuda::HostFn in_flight_fn_;
  std::size_t pending_kernels_ = 0;  // queued here + in flight below

  bool token_valid_ = false;
  bool token_held_ = false;  // holder (valid or overrun) per backend
  bool token_requested_ = false;
  /// Expiry of the current grant; an overstaying hook keeps running past
  /// it. Stale once the token lapses (guarded by token_valid_).
  Time expiry_{0};

  SwapManager* swap_ = nullptr;
  sim::Simulation* sim_ = nullptr;
  /// A migration charged through the inner driver's MemPrefetch lane is in
  /// flight; Drain() holds every kernel until it completes.
  bool swap_pending_ = false;
  gpu::DevicePtr next_swap_ptr_ = 1ull << 48;  // distinct from device ptrs

  std::optional<AdversarialSpec> adversarial_;
  sim::Simulation* adv_sim_ = nullptr;
  sim::EventId adv_event_ = sim::kInvalidEvent;
  std::uint64_t attack_ticks_ = 0;
};

}  // namespace ks::vgpu
