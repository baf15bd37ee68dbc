#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "gpu/utilization.hpp"
#include "sim/simulation.hpp"

namespace ks::gpu {

/// Static properties of a simulated device. Defaults model the paper's
/// testbed GPU (NVIDIA Tesla V100, 16 GB device memory).
struct GpuSpec {
  std::uint64_t memory_bytes = 16ull * 1024 * 1024 * 1024;
  /// Aggregate memory-bandwidth capacity in normalized units. Concurrent
  /// kernels whose bandwidth demands sum past this stretch uniformly.
  double bandwidth_capacity = 1.0;
};

/// A unit of GPU work. `nominal_duration` is the run time of the kernel when
/// it has the device to itself; concurrent kernels share the SMs
/// processor-sharing style, and bandwidth oversubscription stretches
/// everything uniformly (the contention the paper's intro attributes to
/// "limited memory bandwidth").
struct KernelDesc {
  Duration nominal_duration{0};
  double bandwidth_demand = 0.0;
  std::string name;
  /// Fraction of the device's SMs the kernel can saturate. Only consulted
  /// when the owner runs on a spatial slice: a kernel whose demand exceeds
  /// its slice's compute fraction stretches by demand/fraction, while a
  /// small kernel on a matching slice runs at nominal speed (the spatial
  /// goodput win). 1.0 — the default — models a full-device kernel.
  double sm_demand = 1.0;
};

using KernelId = std::uint64_t;
using DevicePtr = std::uint64_t;
/// Handle to a repeated-kernel stream declared with SubmitRepeat.
using RepeatId = std::uint64_t;

/// Per-unit completion callback for repeated kernels. `finish` is the exact
/// retirement time of the unit; callbacks may be *delivered* in arrears
/// (batched onto the stream's single engine event), so implementations must
/// use `finish` rather than Simulation::Now() for timing.
using UnitDoneFn = std::function<void(Time finish)>;

/// One kernel's lifetime, reported in retirement order. `start`/`finish`
/// are exact regardless of the execution mode (fused or per-kernel), which
/// is what the differential suite pins.
struct KernelTraceEvent {
  KernelId id = 0;
  ContainerId owner;
  std::string name;
  Time start{0};
  Time finish{0};
};
using KernelTraceFn = std::function<void(const KernelTraceEvent&)>;

/// What a tenant did wrong, as observed at the device. Reported through the
/// violation observer so the token backend can attribute and escalate.
enum class DeviceViolation {
  kFencedSubmit,  // kernel submitted without an admitted token epoch
  kMemoryQuota,   // cuMemAlloc past the tenant's enforced quota
};
using ViolationFn = std::function<void(const ContainerId&, DeviceViolation)>;

/// Which execution engine a cluster's devices use. kFused is the
/// virtual-time engine with fused kernel streams; kReference is the
/// original one-event-per-kernel implementation kept as the differential
/// oracle.
enum class GpuExecMode {
  kFused,
  kReference,
};

/// Simulated GPU device: a memory ledger plus a processor-sharing kernel
/// execution engine driven by the discrete-event simulation.
///
/// The execution model is deliberately simple but captures what the paper's
/// isolation mechanism depends on:
///  - kernels are non-preemptive (a kernel in flight always completes);
///  - kernels submitted concurrently (e.g. by containers sharing a GPU with
///    no compute isolation, as under the Aliyun-style baseline) divide the
///    SMs evenly;
///  - device memory is physically bounded: allocation past capacity fails,
///    which is the crash mode KubeShare's memory interception prevents.
///
/// This class is the virtual-time engine: each in-flight kernel's remaining
/// work is a fixed point `end_v` on a global virtual-service axis, Progress
/// advances one accumulator instead of rescaling every kernel, and exactly
/// one completion event is armed at the earliest `end_v`. A completion is
/// therefore O(log n) instead of an O(n) rescale. On top of that,
/// SubmitRepeat lets steady kernel streams retire K identical back-to-back
/// units with a single engine event; any membership, teardown or
/// cancellation event splits the fusion so observable traces (kernel
/// ids/times, utilization, callbacks) are byte-equal to the per-kernel
/// oracle, GpuDeviceReference.
class GpuDevice {
 public:
  GpuDevice(sim::Simulation* sim, GpuUuid uuid, GpuSpec spec = {});
  virtual ~GpuDevice() = default;
  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  const GpuUuid& uuid() const { return uuid_; }
  const GpuSpec& spec() const { return spec_; }
  sim::Simulation* sim() const { return sim_; }

  // --- Memory ---------------------------------------------------------
  Expected<DevicePtr> Allocate(const ContainerId& owner, std::uint64_t bytes);
  Status Free(DevicePtr ptr);
  /// Releases every allocation owned by `owner` (container teardown).
  void FreeAll(const ContainerId& owner);

  std::uint64_t used_memory() const { return used_memory_; }
  std::uint64_t MemoryUsedBy(const ContainerId& owner) const;

  // --- Execution ------------------------------------------------------
  /// Enqueues a kernel for execution; `on_complete` fires (via the event
  /// queue) when it finishes. Execution begins immediately — stream
  /// ordering is enforced by the CUDA layer above, not by the device.
  virtual KernelId Submit(const ContainerId& owner, const KernelDesc& desc,
                          std::function<void()> on_complete);

  /// Declares `count` identical kernels to run back to back (a steady
  /// kernel stream: train steps, inference requests at a fixed service
  /// time). `on_unit` fires once per unit, in order, with the unit's exact
  /// finish time; delivery may be batched onto one engine event. When the
  /// device is otherwise idle the whole run retires on a single event;
  /// otherwise units are chained one at a time exactly like Submit.
  virtual RepeatId SubmitRepeat(const ContainerId& owner,
                                const KernelDesc& desc, int count,
                                UnitDoneFn on_unit);

  /// Cancels the not-yet-started units of a repeat stream (the in-flight
  /// unit always completes — the device cannot preempt). Units already due
  /// are delivered first. Returns the number of units cancelled.
  virtual std::size_t CancelRepeatTail(RepeatId id);

  /// Units of `id` that have finished by now, including due-but-undelivered
  /// ones — the pull-side progress probe that keeps mid-run introspection
  /// exact under fusion.
  virtual std::size_t RepeatUnitsFinished(RepeatId id) const;

  /// Drops the completion callbacks of every in-flight kernel owned by
  /// `owner` and cancels its unstarted repeat units. In-flight kernels
  /// still run to completion (the device cannot preempt) and are counted
  /// and traced when they retire, but nothing is invoked. Called when a
  /// container is torn down while its kernels are on the device — the
  /// callbacks would otherwise dangle into freed per-container state.
  virtual void DetachOwner(const ContainerId& owner);

  /// Exact wall time one unit of `desc` takes with the device to itself —
  /// the quantum the vGPU frontend sizes token-interval batches with.
  Duration ExclusiveWallTime(const KernelDesc& desc) const;

  // --- Spatial slices ---------------------------------------------------
  /// Pins `owner` onto a `groups`-of-`total` SM slice (MIG-style spatial
  /// partition). Its kernels then run on an isolated lane: fixed wall time
  /// nominal * max(1, sm_demand / slice_fraction), no processor-sharing or
  /// bandwidth coupling with other tenants (hardware isolation), and its
  /// allocations are bounded by the slice's proportional memory wall.
  /// Both execution engines share this lane, so differential traces stay
  /// byte-equal. With no assignment (the default) behavior is untouched.
  void SetSliceAssignment(const ContainerId& owner, int groups, int total);
  void ClearSliceAssignment(const ContainerId& owner);
  bool HasSliceAssignment(const ContainerId& owner) const;
  /// Wall time of one `desc` unit for `owner`, honoring its slice
  /// assignment; equals ExclusiveWallTime(desc) without one.
  Duration ExclusiveWallTimeFor(const ContainerId& owner,
                                const KernelDesc& desc) const;
  /// Kernels currently in flight on slice lanes (subset of active_kernels).
  std::size_t sliced_active_kernels() const { return sliced_.size(); }

  // --- Memory migrations ------------------------------------------------
  /// Charges a host<->device page-migration interval to `owner`: the
  /// device keeps its busy interval open for `duration` and fires
  /// `on_done` (via the event queue) when the transfer lands. The
  /// over-commitment layer routes swap traffic here so migration time is
  /// part of the device's virtual-time accounting. Like the slice lane,
  /// this lane lives in the base class and is used verbatim by the fused
  /// and reference engines, so differential traces stay byte-equal.
  void ChargeMigration(const ContainerId& owner, std::uint64_t bytes,
                       Duration duration, UnitDoneFn on_done);
  std::uint64_t migrations_charged() const { return migrations_charged_; }
  std::uint64_t migration_bytes_total() const {
    return migration_bytes_total_;
  }

  // --- Isolation enforcement -------------------------------------------
  /// Hard token fencing, reusing the k8s::FencingGate idiom: each gated
  /// owner carries a (epoch, floor) pair and a submit is admitted only
  /// while epoch >= floor. The token backend admits a fresh monotonic
  /// epoch on every grant and raises the floor past it on release or on
  /// an overstay fence, so a client that keeps submitting after expiry —
  /// or that floods the device without ever holding the token — is
  /// rejected at Submit/SubmitRepeat (return id 0, no trace, no
  /// callback). Owners with no gate (the default, and every native pod)
  /// are always admitted, so behavior without enforcement is untouched.
  /// The gate lives in this base class and is checked identically by the
  /// fused and reference engines, keeping differential traces byte-equal.
  void EnforceTokenGate(const ContainerId& owner);
  void LiftTokenGate(const ContainerId& owner);
  /// Admits `epoch` for `owner` (token granted). No-op without a gate.
  void AdmitTokenEpoch(const ContainerId& owner, std::uint64_t epoch);
  /// Raises the floor past the current epoch (token released or fenced);
  /// subsequent submits are rejected until a newer epoch is admitted.
  void FenceTokenEpoch(const ContainerId& owner);
  bool TokenGateAdmits(const ContainerId& owner) const;
  std::uint64_t fenced_kernel_rejections() const { return fenced_rejections_; }
  std::uint64_t FencedRejectionsOf(const ContainerId& owner) const;

  /// Server-side memory quota: Allocate fails with kResourceExhausted once
  /// `owner`'s ledger would exceed `bytes`, regardless of what the
  /// (bypassable) frontend hook believes. No quota (the default) keeps the
  /// physical-capacity-only behavior.
  void SetMemoryQuota(const ContainerId& owner, std::uint64_t bytes);
  void ClearMemoryQuota(const ContainerId& owner);
  std::uint64_t memory_quota_rejections() const {
    return memory_quota_rejections_;
  }

  /// Observer fired once per fenced submit / quota-rejected allocation.
  void SetViolationFn(ViolationFn fn) { violation_ = std::move(fn); }

  /// Kernels resident on the device (in flight; queued repeat units do not
  /// count, matching the chained oracle where they are not yet submitted).
  virtual std::size_t active_kernels() const;
  bool busy() const { return active_kernels() > 0; }

  /// Device-level utilization (fraction of time >= 1 kernel active).
  const UtilizationTracker& utilization() const { return util_; }
  UtilizationTracker& utilization() { return util_; }

  /// Total kernels completed — a cheap progress probe for tests. Analytic:
  /// includes due-but-unmaterialized units of an active fused stream.
  virtual std::uint64_t completed_kernels() const;

  /// Observer for per-kernel lifetimes, invoked in retirement order. The
  /// differential suite compares these traces across execution modes.
  void SetKernelTraceFn(KernelTraceFn fn) { trace_ = std::move(fn); }

 protected:
  void RecordTrace(KernelId id, const ContainerId& owner,
                   const std::string& name, Time start, Time finish) {
    if (trace_) trace_(KernelTraceEvent{id, owner, name, start, finish});
  }

  /// Gate check shared by both engines' submit paths. Returns true when
  /// the submit must be rejected; counts the rejection and notifies the
  /// violation observer.
  bool RejectFencedSubmit(const ContainerId& owner);

  // Slice-lane hooks for the execution engines. Repeat streams on slices
  // draw ids from a disjoint range so virtual dispatch can route by id.
  static constexpr RepeatId kSlicedRepeatBase = RepeatId{1} << 32;
  static bool IsSlicedRepeat(RepeatId id) { return id >= kSlicedRepeatBase; }
  bool SlicedBusy() const { return !sliced_.empty(); }
  /// True while the (engine-specific) time-shared lane has work in flight;
  /// the device-level busy interval closes only when both lanes drain.
  virtual bool EngineBusy() const;
  KernelId SubmitSliced(const ContainerId& owner, const KernelDesc& desc,
                        UnitDoneFn on_done, RepeatId chain);
  RepeatId SubmitRepeatSliced(const ContainerId& owner,
                              const KernelDesc& desc, int count,
                              UnitDoneFn on_unit);
  std::size_t CancelSlicedTail(RepeatId id);
  std::size_t SlicedUnitsFinished(RepeatId id) const;
  void DetachSlicedOwner(const ContainerId& owner);

  /// True while a charged migration is in flight; the device-level busy
  /// interval stays open until the transfer lands.
  bool MigrationBusy() const { return !migrations_.empty(); }
  /// Drops the completion callbacks of `owner`'s in-flight migrations
  /// (container teardown; the transfers themselves still finish).
  void DetachMigrations(const ContainerId& owner);

  sim::Simulation* sim_;
  GpuUuid uuid_;
  GpuSpec spec_;
  KernelId next_kernel_ = 1;
  UtilizationTracker util_;
  std::uint64_t completed_ = 0;
  KernelTraceFn trace_;

 private:
  struct Running {
    KernelId id;
    ContainerId owner;
    double bandwidth_demand;
    std::int64_t end_v;  // virtual-time completion point
    std::string name;
    Time start{0};
    UnitDoneFn on_done;     // null once detached
    RepeatId chain = 0;     // repeat stream to advance on retirement
  };
  /// A fused repeat stream: K identical units retiring at analytic
  /// boundaries anchor + i*unit_wall with one armed event at the last.
  struct FusedGroup {
    RepeatId id = 0;
    ContainerId owner;
    KernelDesc desc;
    int total = 0;
    Duration unit_wall{0};
    Time anchor{0};
    UnitDoneFn on_unit;
    sim::EventId event = sim::kInvalidEvent;
  };
  /// Un-started tail of a repeat stream running in chained (per-unit) mode.
  struct ChainTail {
    ContainerId owner;
    KernelDesc desc;
    int remaining = 0;       // units not yet started
    std::size_t finished = 0;
    UnitDoneFn on_unit;
    bool in_flight = false;  // one unit currently running
  };
  /// An owner's spatial slice: `groups` of `total` SM groups.
  struct SliceAssign {
    int groups = 0;
    int total = 1;
  };
  /// A kernel in flight on a slice lane. Wall time is fixed at submit
  /// (hardware-isolated partition: no cross-tenant sharing), so each unit
  /// carries its own completion event.
  struct SlicedRunning {
    KernelId id = 0;
    ContainerId owner;
    std::string name;
    Time start{0};
    Time finish{0};
    UnitDoneFn on_done;  // null once detached
    RepeatId chain = 0;
    sim::EventId event = sim::kInvalidEvent;
  };

  /// Re-times the pending completion event after the active set changed.
  void Reschedule();
  /// Advances the virtual-time accumulator by the time since last_update_
  /// at the current sharing rate (O(1); kernels carry fixed end_v points).
  void Progress();
  void RecomputeRate();
  void OnCompletionEvent();
  void OnGroupEvent();
  /// Collapses the fused group into chained per-unit execution: due units
  /// materialize (ids, traces, callbacks), the in-flight unit becomes a
  /// normal running kernel, the tail keeps chaining. Called on any
  /// membership / cancellation / teardown event so every externally
  /// visible trace matches the per-kernel oracle.
  void SplitGroup(bool fire_callbacks);
  void AdvanceChain(RepeatId id);
  void StartChainUnit(RepeatId id);
  void InsertRunning(Running r);

  /// Per-owner fencing gate (FencingGate idiom): admitted while
  /// epoch >= floor. A fresh gate (epoch 0, floor 1) admits nothing.
  struct TokenGate {
    std::uint64_t epoch = 0;
    std::uint64_t floor = 1;
    std::uint64_t rejections = 0;
  };
  std::map<ContainerId, TokenGate> token_gates_;
  std::map<ContainerId, std::uint64_t> memory_quotas_;
  std::uint64_t fenced_rejections_ = 0;
  std::uint64_t memory_quota_rejections_ = 0;
  ViolationFn violation_;

  std::uint64_t used_memory_ = 0;
  DevicePtr next_ptr_ = 1;
  struct Allocation {
    ContainerId owner;
    std::uint64_t bytes;
  };
  std::unordered_map<DevicePtr, Allocation> allocations_;

  // Virtual-time processor-sharing state.
  std::int64_t vnow_ = 0;
  double rate_ = 0.0;  // per-kernel service rate; recomputed on membership
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, Running> running_;            // insertion order
  std::set<std::pair<std::int64_t, std::uint64_t>> by_end_;  // (end_v, seq)
  Time last_update_{0};
  sim::EventId completion_event_ = sim::kInvalidEvent;

  RepeatId next_repeat_ = 1;
  std::optional<FusedGroup> group_;
  std::unordered_map<RepeatId, ChainTail> chains_;

  // Slice-lane state (shared by both engines).
  Duration SlicedWallTime(const ContainerId& owner,
                          const KernelDesc& desc) const;
  void OnSlicedComplete(std::uint64_t seq);
  void AdvanceSlicedChain(RepeatId id);
  void StartSlicedChainUnit(RepeatId id);

  std::map<ContainerId, SliceAssign> slice_assign_;
  std::uint64_t next_slice_seq_ = 1;
  std::map<std::uint64_t, SlicedRunning> sliced_;
  RepeatId next_sliced_repeat_ = kSlicedRepeatBase;
  std::unordered_map<RepeatId, ChainTail> sliced_chains_;

  // Migration-lane state (shared by both engines).
  struct Migration {
    ContainerId owner;
    UnitDoneFn on_done;  // null once detached
    sim::EventId event = sim::kInvalidEvent;
  };
  void OnMigrationComplete(std::uint64_t seq);

  std::uint64_t next_migration_seq_ = 1;
  std::map<std::uint64_t, Migration> migrations_;
  std::uint64_t migrations_charged_ = 0;
  std::uint64_t migration_bytes_total_ = 0;
};

}  // namespace ks::gpu
