#pragma once

#include <cstdint>
#include <functional>
#include <map>
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
  /// A string with static storage (a literal): descriptors and the kernels
  /// in flight keep the pointer, and only a kernel trace copies the text.
  const char* name = "";
  /// Fraction of the device's SMs the kernel can saturate. Only consulted
  /// when the owner runs on a spatial slice: a kernel whose demand exceeds
  /// its slice's compute fraction stretches by demand/fraction, while a
  /// small kernel on a matching slice runs at nominal speed (the spatial
  /// goodput win). 1.0 — the default — models a full-device kernel.
  double sm_demand = 1.0;
};

using KernelId = std::uint64_t;
using DevicePtr = std::uint64_t;

/// One kernel's lifetime, reported in retirement order, which is what the
/// differential suite pins.
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
/// Each in-flight kernel carries its remaining nominal work. On every
/// membership change the engine burns the elapsed time off every kernel at
/// the current per-kernel rate and arms one completion event at the
/// earliest finish, so every kernel retires on an engine event at its exact
/// finish time and its callback runs then. Stream ordering and repeated
/// kernels are the CUDA layer's job; the device runs whatever it is given.
class GpuDevice {
 public:
  GpuDevice(sim::Simulation* sim, GpuUuid uuid, GpuSpec spec = {});
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
  KernelId Submit(const ContainerId& owner, const KernelDesc& desc,
                  std::function<void()> on_complete);

  /// Drops the completion callbacks of every in-flight kernel and charged
  /// migration owned by `owner`. In-flight kernels still run to completion
  /// (the device cannot preempt) and are counted and traced when they
  /// retire, but nothing is invoked. Called when a container is torn down
  /// while its kernels are on the device — the callbacks would otherwise
  /// dangle into freed per-container state.
  void DetachOwner(const ContainerId& owner);

  // --- Spatial slices ---------------------------------------------------
  /// Pins `owner` onto a `groups`-of-`total` SM slice (MIG-style spatial
  /// partition). Its kernels then run on an isolated lane: fixed wall time
  /// nominal * max(1, sm_demand / slice_fraction), no processor-sharing or
  /// bandwidth coupling with other tenants (hardware isolation), and its
  /// allocations are bounded by the slice's proportional memory wall.
  /// With no assignment (the default) behavior is untouched.
  void SetSliceAssignment(const ContainerId& owner, int groups, int total);
  void ClearSliceAssignment(const ContainerId& owner);
  bool HasSliceAssignment(const ContainerId& owner) const;

  // --- Memory migrations ------------------------------------------------
  /// Charges a host<->device page-migration interval to `owner`: the
  /// device keeps its busy interval open for `duration` and fires
  /// `on_done` (via the event queue) when the transfer lands. The
  /// over-commitment layer routes swap traffic here so migration time is
  /// part of the device's busy-time accounting.
  void ChargeMigration(const ContainerId& owner, std::uint64_t bytes,
                       Duration duration, std::function<void()> on_done);
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
  /// rejected at Submit (return id 0, no trace, no callback). Owners with
  /// no gate (the default, and every native pod) are always admitted, so
  /// behavior without enforcement is untouched.
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

  /// Kernels resident on the device (in flight, both lanes).
  std::size_t active_kernels() const {
    return running_.size() + sliced_.size();
  }
  bool busy() const { return active_kernels() > 0; }

  /// Device-level utilization (fraction of time >= 1 kernel active).
  const UtilizationTracker& utilization() const { return util_; }
  UtilizationTracker& utilization() { return util_; }

  /// Total kernels completed — a cheap progress probe for tests.
  std::uint64_t completed_kernels() const { return completed_; }

  /// Observer for per-kernel lifetimes, invoked in retirement order.
  void SetKernelTraceFn(KernelTraceFn fn) { trace_ = std::move(fn); }

 private:
  struct Running {
    KernelId id;
    ContainerId owner;
    double bandwidth_demand;
    Duration remaining{0};
    const char* name;
    Time start{0};
    std::function<void()> on_done;  // null once detached
  };
  /// An owner's spatial slice: `groups` of `total` SM groups.
  struct SliceAssign {
    int groups = 0;
    int total = 1;
  };
  /// A kernel in flight on a slice lane. Wall time is fixed at submit
  /// (hardware-isolated partition: no cross-tenant sharing), so each
  /// kernel carries its own completion event.
  struct SlicedRunning {
    KernelId id = 0;
    ContainerId owner;
    const char* name = "";
    Time start{0};
    Time finish{0};
    std::function<void()> on_done;  // null once detached
    sim::EventId event = sim::kInvalidEvent;
  };
  struct Migration {
    ContainerId owner;
    std::function<void()> on_done;  // null once detached
    sim::EventId event = sim::kInvalidEvent;
  };
  /// Per-owner fencing gate (FencingGate idiom): admitted while
  /// epoch >= floor. A fresh gate (epoch 0, floor 1) admits nothing.
  struct TokenGate {
    std::uint64_t epoch = 0;
    std::uint64_t floor = 1;
    std::uint64_t rejections = 0;
  };
  struct Allocation {
    ContainerId owner;
    std::uint64_t bytes;
  };

  void RecordTrace(KernelId id, const ContainerId& owner, const char* name,
                   Time start, Time finish) {
    if (trace_) trace_(KernelTraceEvent{id, owner, name, start, finish});
  }
  /// Returns true when the submit must be rejected by `owner`'s token
  /// gate; counts the rejection and notifies the violation observer.
  bool RejectFencedSubmit(const ContainerId& owner);
  /// The device-level busy interval closes only when every lane drains.
  void MaybeStopUtilization(Time at);

  // Time-shared lane.
  double CurrentRatePerKernel() const;
  /// Burns the time since last_update_ off every in-flight kernel at the
  /// current sharing rate.
  void Progress();
  /// Re-arms the completion event after the running set changed.
  void Reschedule();
  void OnCompletionEvent();

  // Slice lane.
  Duration SlicedWallTime(const ContainerId& owner,
                          const KernelDesc& desc) const;
  KernelId SubmitSliced(const ContainerId& owner, const KernelDesc& desc,
                        std::function<void()> on_done);
  void OnSlicedComplete(std::uint64_t seq);

  void OnMigrationComplete(std::uint64_t seq);

  sim::Simulation* sim_;
  GpuUuid uuid_;
  GpuSpec spec_;
  KernelId next_kernel_ = 1;
  UtilizationTracker util_;
  std::uint64_t completed_ = 0;
  KernelTraceFn trace_;

  std::map<ContainerId, TokenGate> token_gates_;
  std::map<ContainerId, std::uint64_t> memory_quotas_;
  std::uint64_t fenced_rejections_ = 0;
  std::uint64_t memory_quota_rejections_ = 0;
  ViolationFn violation_;

  std::uint64_t used_memory_ = 0;
  DevicePtr next_ptr_ = 1;
  std::unordered_map<DevicePtr, Allocation> allocations_;

  std::vector<Running> running_;  // submission order
  Time last_update_{0};
  sim::EventId completion_event_ = sim::kInvalidEvent;
  /// Callbacks of the kernels one completion event retires; empty between
  /// events, kept to reuse its capacity.
  std::vector<std::function<void()>> retired_;

  std::map<ContainerId, SliceAssign> slice_assign_;
  std::uint64_t next_slice_seq_ = 1;
  std::map<std::uint64_t, SlicedRunning> sliced_;

  std::uint64_t next_migration_seq_ = 1;
  std::map<std::uint64_t, Migration> migrations_;
  std::uint64_t migrations_charged_ = 0;
  std::uint64_t migration_bytes_total_ = 0;
};

}  // namespace ks::gpu
