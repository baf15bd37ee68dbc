#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/time.hpp"

namespace ks::vgpu {

/// Knobs for one device's over-commitment model. Defaults match the
/// pre-page-table behavior: 2 MiB pages (CUDA large-page granularity, and
/// every allocation in the test corpus is a multiple of it), a
/// PCIe-gen3-ish link, and an unbounded host backing store.
struct SwapConfig {
  /// Residency granularity. Allocations round up to whole pages.
  std::uint64_t page_bytes = 2ull << 20;
  /// Effective host<->device migration rate for this device's link.
  double link_bandwidth_bytes_per_s = 12e9;
  /// Upper bound on total allocation as a multiple of physical capacity
  /// (e.g. 2.0 allows 2x device memory in aggregate). 0 means unbounded,
  /// the legacy behavior.
  double oversubscription_factor = 0.0;
};

/// Cluster-level switch for the over-commitment extension. Off by default:
/// frontends keep the strict paper-§4.5 quota behavior, no SwapManager is
/// created, and every existing trace is byte-identical. When enabled, the
/// workload host wires each KubeShare container to its device's shared
/// SwapManager built from `swap`, and KubeShare's scheduler admits
/// placements up to `swap.oversubscription_factor`; pair with
/// BackendConfig::tq for the nvshare-style anti-thrashing rotation.
struct OversubscriptionConfig {
  bool enabled = false;
  SwapConfig swap;
};

/// GPUswap-style memory over-commitment for one device (the extension the
/// paper points at in §4.5: "there are some existing approaches [4,19,32]
/// to support memory over-commitment, and our work can be integrated with
/// these solutions").
///
/// Containers may allocate more, in aggregate, than physical device
/// memory (bounded by `SwapConfig::oversubscription_factor` when set). A
/// container's pages must be resident while it runs; bringing them in
/// evicts the least-recently-running containers' pages to host memory,
/// and the migration time (bytes moved over the host-device link) is
/// charged to the in-bound container — the "performance overhead from the
/// memory swapping operations due to the limited memory bandwidth" the
/// paper warns about.
///
/// Residency is tracked at page granularity. The host<->device link is a
/// shared serial resource: concurrent migrations queue behind each other,
/// so the charged time for a swap-in is queue wait + transfer time at the
/// nominal link rate. Eviction picks the least-recently-run owner; owners
/// that never ran tie-break by registration order, so a sweep's results
/// do not depend on container-id spellings or map iteration order.
class SwapManager {
 public:
  /// `capacity_bytes` is the physical device memory.
  explicit SwapManager(std::uint64_t capacity_bytes, SwapConfig config = {});

  std::uint64_t capacity() const { return capacity_bytes_; }
  std::uint64_t page_bytes() const { return config_.page_bytes; }
  const SwapConfig& config() const { return config_; }

  /// Allocates `bytes` (rounded up to whole pages) for `owner`. The pages
  /// land resident while space is free, otherwise swapped-out (they will
  /// be migrated in when the owner runs). Fails for zero-byte requests
  /// and, when an oversubscription factor is configured, for requests
  /// that would push total allocation past capacity x factor.
  Status Allocate(const ContainerId& owner, std::uint64_t bytes);

  /// Releases `bytes` (rounded up to whole pages) of `owner`'s
  /// allocation, resident pages first.
  Status Free(const ContainerId& owner, std::uint64_t bytes);

  /// Drops every allocation of `owner`.
  void FreeAll(const ContainerId& owner);

  /// Makes all of `owner`'s pages resident, evicting other containers'
  /// pages (least-recently-run first, registration order among never-run
  /// owners) as needed. Returns the time charged to the in-bound owner:
  /// link queue wait plus (bytes swapped in + bytes evicted) / link
  /// bandwidth. Also stamps `owner` as most recently run at `now`.
  Duration MakeResident(const ContainerId& owner, Time now);

  std::uint64_t AllocatedBy(const ContainerId& owner) const;
  std::uint64_t ResidentOf(const ContainerId& owner) const;
  std::uint64_t SwappedOf(const ContainerId& owner) const;
  std::uint64_t total_allocated() const {
    return total_allocated_pages_ * config_.page_bytes;
  }
  std::uint64_t total_resident() const {
    return total_resident_pages_ * config_.page_bytes;
  }
  std::uint64_t total_swapped() const {
    return total_allocated() - total_resident();
  }
  std::uint64_t swap_ins() const { return swap_ins_; }
  std::uint64_t bytes_migrated() const { return bytes_migrated_; }
  /// Bytes moved by the most recent MakeResident call (0 when the working
  /// set was already resident) — the per-hand-off swap traffic callers
  /// report to thrash detection.
  std::uint64_t last_migration_bytes() const { return last_migration_bytes_; }
  /// Fraction of [0, now] the link spent transferring (excludes queue
  /// wait).
  double LinkBusyFraction(Time now) const;

  /// Deterministic one-line-per-owner picture of the residency state,
  /// for crash-rebuild byte-equality checks.
  std::string DebugString() const;

 private:
  struct State {
    std::uint64_t pages_allocated = 0;
    std::uint64_t pages_resident = 0;
    Time last_run{0};
    /// First-registration order, the eviction tie-break among owners that
    /// have never run (all `last_run == 0`).
    std::uint64_t reg_seq = 0;
  };

  std::uint64_t PagesFor(std::uint64_t bytes) const {
    return (bytes + config_.page_bytes - 1) / config_.page_bytes;
  }
  std::uint64_t capacity_pages() const {
    return capacity_bytes_ / config_.page_bytes;
  }

  std::uint64_t capacity_bytes_;
  SwapConfig config_;
  std::map<ContainerId, State> containers_;
  std::uint64_t next_reg_seq_ = 0;
  std::uint64_t total_allocated_pages_ = 0;
  std::uint64_t total_resident_pages_ = 0;
  std::uint64_t swap_ins_ = 0;
  std::uint64_t bytes_migrated_ = 0;
  std::uint64_t last_migration_bytes_ = 0;
  /// The shared link frees up at this instant; migrations starting before
  /// it queue behind the in-flight transfer.
  Time link_free_at_{0};
  Duration link_busy_total_{0};
};

}  // namespace ks::vgpu
