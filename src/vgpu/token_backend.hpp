#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/nvshare_tq.hpp"
#include "common/ids.hpp"
#include "common/sliding_window.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "metrics/latency_digest.hpp"
#include "sim/simulation.hpp"
#include "vgpu/resource_spec.hpp"

namespace ks::gpu {
class GpuDevice;
}  // namespace ks::gpu

namespace ks::vgpu {

/// Per-tenant isolation enforcement (ROADMAP item 5, Guardian direction):
/// hard token fencing at the device, quota clamp-down after repeated
/// violations, and eviction of repeat offenders. Off by default — with
/// `enabled == false` every path below is bypassed and the backend is
/// byte-identical to the pre-enforcement behavior.
struct EnforcementConfig {
  bool enabled = false;
  /// Overrun grace past quota expiry before a still-holding tenant is
  /// declared an overstayer and fenced at the device. Must exceed the
  /// longest polite kernel (kernels are non-preemptive, so polite holders
  /// legitimately overrun by up to one kernel).
  Duration fence_grace = Millis(50);
  /// Violations before the tenant's spec is clamped down (gpu_request
  /// treated as 0, gpu_limit capped at clamp_limit). 0 disables clamping.
  int clamp_threshold = 3;
  double clamp_limit = 0.05;
  /// Violations before the tenant is reported to the eviction callback
  /// (DevMgr tears the sharePod down). 0 disables eviction.
  int evict_threshold = 8;
  /// Self-reported usage below measured * (1 - spoof_tolerance) counts as
  /// a metrics-spoof violation (only checked above spoof_floor, where the
  /// sliding window is meaningful).
  double spoof_tolerance = 0.25;
  double spoof_floor = 0.05;
};

/// Kinds of tenant misbehavior the enforcement layer attributes.
enum class ViolationKind {
  kOverstay,      // still holding fence_grace past quota expiry
  kFencedSubmit,  // kernel submitted without an admitted token epoch
  kMemoryQuota,   // allocation past the device-enforced memory quota
  kMetricsSpoof,  // self-reported usage under-reports measured usage
};

inline const char* ViolationKindName(ViolationKind k) {
  switch (k) {
    case ViolationKind::kOverstay: return "overstay";
    case ViolationKind::kFencedSubmit: return "fenced_submit";
    case ViolationKind::kMemoryQuota: return "memory_quota";
    case ViolationKind::kMetricsSpoof: return "metrics_spoof";
  }
  return "unknown";
}

/// SLO-aware admission control at the daemon (ROADMAP item 4, SGDRC
/// direction): when a service's observed p99 approaches its SLO, the
/// daemon sheds or queues new requests instead of letting the backlog push
/// every request past the deadline. Off by default — with `enabled ==
/// false` the daemon stores no serving state and AdmitRequest always
/// admits, so existing traces stay byte-identical.
struct AdmissionConfig {
  bool enabled = false;
  enum class Policy {
    kShed,   ///< reject at the door (client sees an immediate error)
    kQueue,  ///< hold at the door; the frontend retries after a delay
  };
  Policy policy = Policy::kShed;
  /// Admission trips once observed p99 >= headroom * slo.
  double headroom = 0.9;
  /// Sliding window of the per-service latency digest (two rotating
  /// epochs; the estimate covers one to two windows of history).
  Duration window = Seconds(5.0);
  /// Samples required in the window before the p99 estimate is trusted;
  /// below this the daemon admits unconditionally (cold start, quiet
  /// service).
  std::uint64_t min_samples = 20;
};

/// What the daemon tells a service frontend about one request at the door.
enum class AdmissionDecision {
  kAdmit,
  kShed,
  kQueue,
};

/// Tuning knobs of the per-node backend daemon (paper §4.5).
struct BackendConfig {
  /// Time quota attached to each valid token. The paper settles on 100 ms
  /// (Fig 7: <=5% slowdown even at 30 ms; smaller quota = finer control but
  /// more token exchanges).
  Duration quota = Millis(100);
  /// Cost of one token hand-off: the IPC round trip between frontend and
  /// backend plus the CUDA synchronization before yielding. The GPU is idle
  /// for this long on every grant, which is exactly the Fig 7 overhead.
  Duration exchange_latency = Micros(1500);
  /// Sliding window over which per-container usage rates are measured.
  Duration usage_window = Seconds(10.0);
  /// Re-evaluation period while every queued requester sits at its
  /// gpu_limit (usage decays as the window slides, so a requester will
  /// become eligible again without any new event arriving).
  Duration reeval_period = Millis(5);
  /// How long the daemon is down across a Restart() before it has rebuilt
  /// its device state and re-accepts the frontends that survived (systemd
  /// restart + socket re-handshake, scaled to simulation-friendly values).
  Duration restart_downtime = Millis(50);
  /// Spatial sharing (MIG-style slices): when enabled, a container's
  /// ResourceSpec::slice_groups is honored and several tokens per device
  /// are granted at once as long as the holders' SM-group claims fit the
  /// device's `sm_groups`. When disabled — and for slice_groups == 0 —
  /// every claim is the whole GPU, which is the paper's one-token-at-a-time
  /// temporal sharing.
  bool spatial_enabled = false;
  int sm_groups = 7;
  EnforcementConfig enforcement;
  /// nvshare-style exclusive-time-quantum anti-thrashing for memory-
  /// oversubscribed devices: frontends report swap traffic per grant, and
  /// once a device's swap bytes per detection window cross the threshold
  /// its full-GPU grants switch from `quota` to the (much longer)
  /// `tq.quantum` until the traffic calms (a TQ rotation is by definition
  /// exclusive, so slice holds keep `quota`). Off by default.
  baselines::NvshareTqConfig tq;
  /// SLO-aware admission control at the daemon door. Off by default.
  AdmissionConfig admission;
};

/// Callback surface of the per-container frontend, as seen by the backend.
/// In the real system these are messages over a Unix socket; here they are
/// direct calls dispatched from simulation events.
class TokenClient {
 public:
  virtual ~TokenClient() = default;

  /// The token is now valid for this container until `expiry`. The frontend
  /// may submit kernels until then.
  virtual void OnTokenGranted(Time expiry) = 0;

  /// The quota ran out. The frontend must stop submitting new kernels and
  /// call ReleaseToken() once its in-flight kernel (if any) retires —
  /// kernels are non-preemptive, so a small overrun is possible.
  virtual void OnTokenExpired() = 0;

  /// The backend daemon restarted and has just re-registered this frontend
  /// (the socket reconnected). Any token the frontend believed it held is
  /// gone — it must drop its token state and re-request if it has work.
  virtual void OnBackendRestart() {}
};

/// The per-node backend daemon: one instance manages the tokens of every
/// GPU on a node independently (paper: "only one backend module is needed
/// on a host machine").
///
/// Token scheduling follows the paper's three-step elastic policy verbatim:
///  1. filter requesters whose sliding-window usage already reached their
///     gpu_limit;
///  2. among the rest, prefer the container farthest below its gpu_request
///     (guaranteeing minimum demands — KubeShare-Sched never over-commits
///     the sum of gpu_requests on a device);
///  3. if every requester has reached its gpu_request, grant to the one
///     with the lowest current usage (fair division of residual capacity).
///
/// Every grant is a hold on a number of the device's SM groups. A temporal
/// grant is simply a claim on all of them, so the paper's single token per
/// GPU and MIG-style concurrent slice tokens share one grant path: a
/// decision grants waiters while their claims fit the free groups.
///
/// Every deadline the daemon owns (grant hand-off, quota expiry, overstay
/// fence, throttle re-evaluation, restart downtime) is its own engine
/// event at its exact microsecond; tests/golden/token_daemon.golden pins
/// the resulting traces. The hand-off, the expiry armed at the hand-off
/// and the overstay fence always lie a constant delay ahead, so they ride
/// the engine's fixed-delay lanes (Simulation::ScheduleAfterFixed).
class TokenBackend {
  struct ContainerState;

 public:
  TokenBackend(sim::Simulation* sim, BackendConfig config = {});
  TokenBackend(const TokenBackend&) = delete;
  TokenBackend& operator=(const TokenBackend&) = delete;

  const BackendConfig& config() const { return config_; }

  /// Makes a device known to the backend. Idempotent.
  void RegisterDevice(const GpuUuid& device);

  /// How a frontend reaches its container with no id lookup: the daemon's
  /// record and the registration it was issued for. A handle goes stale
  /// when the container is unregistered or the daemon restarts; a stale or
  /// default handle answers NOT_FOUND, as an unregistered id does.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class TokenBackend;
    Handle(ContainerState* record, std::uint64_t registration)
        : record_(record), registration_(registration) {}
    ContainerState* record_ = nullptr;
    std::uint64_t registration_ = 0;
  };

  /// Registers a container that will contend for `device` and returns its
  /// handle. The client pointer must outlive the registration. While the
  /// daemon is down the registration parks and the handle is a default
  /// one; the frontend re-resolves it in TokenClient::OnBackendRestart.
  Expected<Handle> RegisterContainer(const ContainerId& container,
                                     const GpuUuid& device,
                                     const ResourceSpec& spec,
                                     TokenClient* client);

  /// A registered container's handle; a default one for any other id.
  Handle HandleOf(const ContainerId& container) const;

  /// Removes a container; an outstanding token is reclaimed immediately.
  Status UnregisterContainer(const ContainerId& container);

  /// Vertical resize: replaces a running container's compute spec. Takes
  /// effect at the next grant decision (the current hold is untouched);
  /// gpu_mem changes are ignored — allocations are already placed. A
  /// container parked across a Restart() is re-registered with the new
  /// spec.
  Status UpdateSpec(const ContainerId& container, const ResourceSpec& spec);

  /// Frontend request: the container has kernels to run and needs the
  /// token. Idempotent while already queued or holding.
  Status RequestToken(const Handle& handle);
  Status RequestToken(const ContainerId& container) {
    return RequestToken(HandleOf(container));
  }

  /// Frontend release: the holder yields (early, with no more work, or
  /// after expiry once its in-flight kernel retired).
  Status ReleaseToken(const Handle& handle);
  Status ReleaseToken(const ContainerId& container) {
    return ReleaseToken(HandleOf(container));
  }

  /// Postpones the holder's quota expiry by `extra`. Used by the memory
  /// over-commitment extension: the time slice should cover kernel
  /// execution, not the page migration that precedes it — without the
  /// extension a migration longer than the quota would expire every grant
  /// before a single kernel runs (swap thrash with zero progress).
  Status ExtendQuota(const ContainerId& container, Duration extra);

  /// Sliding-window usage rate of a container — the quantity Fig 6 plots
  /// per job ("the GPU utilization of individual container is measured by
  /// the allocated usage time from our vGPU device library").
  double UsageOf(const ContainerId& container) const;

  /// A current holder of a device's token (valid or in overrun), if any —
  /// the first in ContainerId order when slice holds run concurrently; use
  /// ActiveHolders() for the count.
  std::optional<ContainerId> HolderOf(const GpuUuid& device) const;

  /// Tokens currently granted (valid, in overrun, or mid-exchange) on a
  /// device.
  std::size_t ActiveHolders(const GpuUuid& device) const;

  /// High-water mark of ActiveHolders over any device since construction.
  std::size_t peak_active_holders() const { return peak_holders_; }

  /// Number of containers queued for a device's token.
  std::size_t QueueLength(const GpuUuid& device) const;

  /// Total number of token grants performed (all devices) — the Fig 7
  /// exchange count.
  std::uint64_t grants() const { return grants_; }

  /// Fault injection: the daemon dies and restarts. All token/queue state
  /// and sliding windows are lost (state is in-memory in the real daemon
  /// too); every pending timer is cancelled. Containers registered at
  /// crash time are remembered as reattach candidates: after
  /// BackendConfig::restart_downtime the daemon re-registers those still
  /// alive (ones unregistered during the downtime — e.g. their node died —
  /// are skipped) and tells each via TokenClient::OnBackendRestart so the
  /// frontend re-requests. Devices stay registered (rediscovered on boot).
  void Restart();

  std::uint64_t restarts() const { return restarts_; }
  /// Containers re-registered across restarts (tokens re-acquired follow).
  std::uint64_t reattached() const { return reattached_; }
  bool down() const { return down_; }

  /// Per-container accounting, for observability and the isolation
  /// analyses: how often the container got the token, how long it held it
  /// in total, and how much of that was overrun past the quota (the
  /// non-preemptive-kernel effect bench_ablation_kernel_length measures).
  struct ContainerStats {
    std::uint64_t grants = 0;
    Duration held_total{0};
    Duration overrun_total{0};
  };
  ContainerStats StatsOf(const ContainerId& container) const;

  /// Deadlines the daemon still owes the engine: grant hand-offs, quota
  /// expiries, overstay fences, throttle re-evaluations and the restart
  /// come-back. Zero when the daemon is idle — the dangling-reeval
  /// regression test pins this.
  std::size_t pending_timers() const;

  // --- Isolation enforcement -----------------------------------------------

  /// Per-tenant violation ledger. Survives Restart() — a daemon crash
  /// forgives no violation (the ledger is rebuilt state, not token state).
  struct IsolationStats {
    std::uint64_t overstays = 0;
    std::uint64_t fenced_submits = 0;
    std::uint64_t memory_violations = 0;
    std::uint64_t spoofs = 0;
    bool clamped = false;
    bool evicted = false;
    std::uint64_t total() const {
      return overstays + fenced_submits + memory_violations + spoofs;
    }
  };

  /// Attributes one violation to `container` and escalates (clamp-down,
  /// eviction) per EnforcementConfig. Devices route their fenced-submit /
  /// memory-quota observations here via the cluster wiring. A no-op while
  /// enforcement is disabled.
  void RecordViolation(const ContainerId& container, ViolationKind kind);
  IsolationStats IsolationOf(const ContainerId& container) const;
  /// The full ledger in ContainerId order, for metrics export.
  std::vector<std::pair<ContainerId, IsolationStats>> IsolationLedger() const;
  std::uint64_t violations_total() const { return violations_total_; }
  std::uint64_t clampdowns_total() const { return clampdowns_total_; }
  std::uint64_t evictions_total() const { return evictions_total_; }

  /// Frontend-sampler self-report of the container's usage rate. The
  /// untrusted input of the metrics-spoofing attack: without enforcement
  /// the daemon trusts it in grant decisions; with enforcement the daemon
  /// schedules on its own measured attribution and flags under-reports.
  void ReportUsage(const ContainerId& container, double claimed);

  /// Invoked (asynchronously, once per tenant) when a tenant crosses the
  /// eviction threshold; DevMgr wires this to sharePod teardown.
  using EvictionFn =
      std::function<void(const ContainerId&, const std::string& reason)>;
  void SetEvictionFn(EvictionFn fn) { eviction_fn_ = std::move(fn); }

  /// Resolves a device uuid to the simulated device so the backend can
  /// drive its token gate / memory quota. Wired by k8s::Cluster when
  /// enforcement is on.
  using DeviceResolver = std::function<gpu::GpuDevice*(const GpuUuid&)>;
  void SetDeviceResolver(DeviceResolver fn) {
    device_resolver_ = std::move(fn);
  }

  // --- Memory oversubscription -------------------------------------------

  /// Frontend report of swap traffic incurred on a token hand-off (the
  /// bytes MakeResident migrated for this container). Feeds the nvshare-TQ
  /// thrash detector when BackendConfig::tq is enabled.
  void ReportSwapBytes(const ContainerId& container, std::uint64_t bytes);
  /// Times any device switched from sharing to TQ rotation.
  std::uint64_t tq_engagements() const { return tq_.engagements(); }
  /// True while `device` is under TQ rotation.
  bool TqEngaged(const GpuUuid& device) const {
    return tq_.EngagedNow(device);
  }

  // --- SLO admission control -------------------------------------------------

  /// One serving container's admission state: its SLO and the windowed
  /// latency digest its p99 estimate comes from, marked at the first
  /// bucket whose lower edge fails "p99 < headroom * SLO". Opaque to
  /// callers, who hold a pointer to it — the serving handle — from
  /// SetServiceSlo. It lives as long as the daemon: entries are never
  /// erased, and Restart() keeps them, so the latency history that
  /// admission needs survives exactly when a restart's backlog needs it.
  class ServingState {
   public:
    explicit ServingState(Duration window) : digest_(window) {}

   private:
    friend class TokenBackend;
    Duration slo_{0};
    metrics::WindowedLatencyDigest digest_;
  };

  /// Declares the p99 SLO of the service a container replica belongs to
  /// and returns the container's serving handle. Called by the serving
  /// frontend when a replica comes up; a second call replaces the SLO and
  /// keeps the latency history. Returns nullptr, and keeps no serving
  /// state, while BackendConfig::admission is disabled, so the disabled
  /// daemon is byte-identical to the pre-admission one.
  ServingState* SetServiceSlo(const ContainerId& container, Duration slo_p99);

  /// Per-request latency report feeding the serving handle's windowed
  /// digest. Zero-allocation; a no-op for a null handle.
  void ReportRequestLatency(ServingState* serving, Time now, Duration latency);

  /// The admission decision for one new request bound for the serving
  /// handle's container. O(1): it scans no buckets. Always kAdmit for a
  /// null handle (admission disabled), during cold start (fewer than
  /// AdmissionConfig::min_samples in the window), or while observed p99
  /// stays under headroom * SLO.
  AdmissionDecision AdmitRequest(ServingState* serving, Time now);

  std::uint64_t admission_sheds() const { return admission_sheds_; }
  std::uint64_t admission_queued() const { return admission_queued_; }

  /// Observer of token lifecycle transitions. `what` is one of "grant",
  /// "expire", "release", "fence", "restart"; `when` is the quota expiry
  /// for grants and the transition time otherwise. The differential and
  /// golden suites record these from cluster runs.
  using GrantTraceFn =
      std::function<void(const char* what, const ContainerId&, Time when)>;
  void SetGrantTraceFn(GrantTraceFn fn) { grant_trace_ = std::move(fn); }

 private:
  struct DeviceState;

  /// One granted token, kept in its holder's ContainerState: the claim on
  /// the device's SM groups and the deadlines armed for it.
  struct Hold {
    /// Numbers the grant that created the hold: a timer completes only the
    /// hold that scheduled it, never a later hold of the same id.
    std::uint64_t serial = 0;
    bool valid = false;      // false while mid-exchange or in overrun
    bool in_flight = false;  // exchange latency elapsing
    Time expiry{0};
    sim::EventId expiry_event = sim::kInvalidEvent;
    /// Enforcement only: overstay deadline at expiry + fence_grace.
    sim::EventId fence_event = sim::kInvalidEvent;
    int groups = 0;  // SM groups the hold occupies
  };

  /// A container's record: never destroyed before the daemon and recycled
  /// through a free list, so handles and timers may point at it.
  struct ContainerState {
    ContainerState() : ContainerState(ContainerId(), nullptr, Duration{0}) {}
    ContainerState(ContainerId id, DeviceState* dev, Duration window)
        : id(std::move(id)), dev(dev), usage(window) {}
    /// Numbers the registration that owns the record; 0 while it is free.
    std::uint64_t registration = 0;
    ContainerId id;
    /// The device the container contends for, resolved once at
    /// registration. devices_ entries are never erased, so it stays valid.
    DeviceState* dev;
    ResourceSpec spec;
    TokenClient* client = nullptr;
    SlidingWindowUsage usage;
    bool queued = false;
    /// True while the container holds a token (valid, in overrun or
    /// mid-exchange); `hold` describes it.
    bool holding = false;
    Hold hold;
    std::uint64_t enqueue_seq = 0;  // FIFO tie-break
    Time grant_time{0};             // of the current hold
    ContainerStats stats;
    /// Last self-reported usage (ReportUsage). Trusted in grant decisions
    /// only while enforcement is off — the spoofing hole.
    std::optional<double> claimed_usage;
  };

  struct DeviceState {
    GpuUuid id;
    std::deque<ContainerState*> queue;
    /// Containers holding this device's tokens, in grant order. A hold
    /// ends before its container is unregistered, so the pointers stay
    /// valid while listed.
    std::vector<ContainerState*> holders;
    int groups_held = 0;
    sim::EventId reeval_event = sim::kInvalidEvent;
  };

  /// The device's state, created on first use.
  DeviceState& EnsureDevice(const GpuUuid& device);
  /// SM groups a container's hold occupies: its slice claim when spatial
  /// sharing is on, otherwise (and for slice_groups == 0) the whole GPU.
  int ClaimOf(const ContainerState& state) const;
  void TryGrant(DeviceState& dev);
  void GrantTo(DeviceState& dev, ContainerState& state);
  /// Quota attached to a grant of `groups` SM groups on `device_id`: the
  /// TQ quantum while the thrash detector has the device in rotation and
  /// the hold is exclusive, the normal quota otherwise.
  Duration GrantQuotaFor(const GpuUuid& device_id, int groups);
  /// The registered container's record, or nullptr.
  ContainerState* Find(const ContainerId& container) const;
  void FreeRecord(ContainerState& state);
  /// `holder` while it holds the hold numbered `serial`. Grant serials are
  /// global, so no later hold, even of a recycled record, matches.
  static ContainerState* HolderBySerial(ContainerState* holder,
                                        std::uint64_t serial) {
    return holder->holding && holder->hold.serial == serial ? holder : nullptr;
  }
  /// Arms the hold's quota expiry and, under enforcement, its overstay
  /// fence. At the hand-off both lie a constant delay ahead (the quota, and
  /// the quota plus fence_grace), so they ride fixed-delay lanes; an
  /// ExtendQuota re-arm moves the deadline and goes on the heap.
  void ArmExpiry(ContainerState& holder, bool at_handoff);
  void OnExpiry(ContainerState& holder);
  /// Drops a hold: cancels its timers and frees its SM groups. With
  /// `settle`, the container's hold accounting (held / overrun time) is
  /// settled first.
  void EndHold(ContainerState& holder, bool settle, Time now);
  void ScheduleReeval(DeviceState& dev);
  void CancelIdleReeval(DeviceState& dev);
  void Trace(const char* what, const ContainerId& container, Time when) {
    if (grant_trace_) grant_trace_(what, container, when);
  }

  // Enforcement internals. All no-ops / pass-throughs when
  // config_.enforcement.enabled is false.
  bool Enforcing() const { return config_.enforcement.enabled; }
  gpu::GpuDevice* ResolveDevice(const GpuUuid& device) const;
  bool IsClamped(const ContainerId& container) const;
  /// Usage rate grant decisions run on: the daemon's own measured
  /// attribution under enforcement, the (spoofable) self-report otherwise.
  double SchedulingUsage(const ContainerState& state, Time now) const;
  double EffectiveLimit(const ContainerState& state) const;
  double EffectiveRequest(const ContainerState& state) const;
  void OnFenceDeadline(ContainerState& holder);

  /// What the daemon needs to re-admit a surviving frontend after a
  /// restart. Keyed by a sorted map so reattach order is deterministic.
  struct ReattachInfo {
    GpuUuid device;
    ResourceSpec spec;
    TokenClient* client = nullptr;
  };

  sim::Simulation* sim_;
  BackendConfig config_;
  /// Never erased: containers, holds and timers point at these entries.
  std::unordered_map<GpuUuid, DeviceState> devices_;
  /// Every record ever made, the free ones, and the registered ones by id.
  std::vector<std::unique_ptr<ContainerState>> records_;
  std::vector<ContainerState*> free_records_;
  std::unordered_map<ContainerId, ContainerState*> containers_;
  std::uint64_t registrations_ = 0;
  std::map<ContainerId, ReattachInfo> pending_reattach_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t grants_ = 0;
  /// Bumped by Restart(); a pending come-back of an earlier restart no-ops.
  std::uint64_t epoch_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t reattached_ = 0;
  std::size_t peak_holders_ = 0;
  bool down_ = false;
  GrantTraceFn grant_trace_;

  /// Per-container admission state. Keyed separately from containers_ —
  /// like the violation ledger, it is rebuilt-state, not token-state, so
  /// Restart() keeps it. Never erased: serving handles point at these
  /// entries. Only populated while config_.admission.enabled (disabled
  /// daemons carry zero serving state).
  std::map<ContainerId, ServingState> serving_;
  std::uint64_t admission_sheds_ = 0;
  std::uint64_t admission_queued_ = 0;

  /// Violation ledger, keyed separately from containers_ so Restart()
  /// (which clears container state) forgives nothing; sorted for
  /// deterministic metrics export.
  std::map<ContainerId, IsolationStats> violations_;
  std::uint64_t violations_total_ = 0;
  std::uint64_t clampdowns_total_ = 0;
  std::uint64_t evictions_total_ = 0;
  /// Monotonic token epoch admitted at the device gate on every grant.
  /// Never reset — a post-restart grant must out-rank every fenced epoch.
  std::uint64_t token_epoch_ = 0;
  /// nvshare-TQ thrash detector. Deliberately NOT cleared by Restart():
  /// like the violation ledger, engagement state is rebuilt-state, not
  /// token-state — a daemon crash must not bounce a thrashing device back
  /// into swap-storm sharing.
  baselines::TqController tq_;
  EvictionFn eviction_fn_;
  DeviceResolver device_resolver_;
};

}  // namespace ks::vgpu
