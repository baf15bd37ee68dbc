#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sim/sharded.hpp"

namespace ks::scale {

/// Which engine drives the model.
enum class EngineKind {
  /// One sim::Simulation, every activity is its own engine event, watch
  /// fan-out unbatched — the pre-sharding idiom, kept as the byte-equality
  /// oracle and the throughput baseline.
  kSingleBaseline,
  /// One sim::Simulation but with the scale-path event economy (per-shard
  /// work calendars + batched watch fan-out). Isolates the economy win
  /// from the sharding win.
  kSingleBatched,
  /// ShardedSimulation, serial drain (threads = 0).
  kShardedSerial,
  /// ShardedSimulation with worker threads.
  kShardedParallel,
};

/// Configuration for the pod-churn soak. Every period and phase is
/// quantized to the synchronization window, and every activity class fires
/// on its own microsecond lane within the window (see cluster_model.cpp) —
/// the discipline that makes all four engine kinds byte-equal.
struct ScaleConfig {
  int nodes = 10000;
  int sharepods = 100000;  // live target; churn replaces completed pods
  int gpu_slots_per_node = 0;  // 0: derived as 2 * sharepods / nodes

  int node_shards = 16;
  int threads = 0;  // kShardedParallel only
  Duration window = Millis(1);
  Duration duration = Seconds(5);
  std::uint64_t seed = 1;

  /// Model timings (all multiples of `window`).
  Duration api_latency = Millis(1);      // cross-shard lookahead anchor
  Duration token_quota = Millis(100);    // token-renewal grant period
  Duration kernel_period = Millis(40);   // kernel burst period per pod
  Duration nvml_period = Seconds(1);     // per-node NVML sampling
  Duration heartbeat = Seconds(10);      // kubelet heartbeat
  Duration mean_lifetime = Seconds(20);  // pod lifetime (uniform, mean this)
  Duration min_lifetime = Millis(200);

  /// Chaos: hard node crashes (every resident pod dies, capacity returns
  /// through the exit/reject message paths) and a DevMgr informer crash +
  /// resync (the lost-watch-events recovery the batched fan-out must
  /// survive without losing or duplicating an event).
  int crash_nodes = 0;
  Duration crash_at = Seconds(2);
  Duration crash_stagger = Millis(500);
  Duration crash_downtime = Seconds(2);
  int devmgr_crashes = 0;
  Duration devmgr_crash_at = Seconds(3);
  Duration devmgr_resync_after = Millis(500);

  /// Adversarial tenants: every `hostile_every`-th pod (by uid) ignores
  /// token revocation. After `hostile_fence_after` grants its gate fences —
  /// no further grants — and every subsequent kernel burst is rejected at
  /// the gate (counted + traced as a fenced burst, never as useful work).
  /// 0 disables. The hostile schedule rides the same window/lane grid as
  /// polite work, so it is part of the byte-equality differential surface.
  int hostile_every = 0;
  int hostile_fence_after = 3;

  /// Record full per-shard trace dumps (canonically sorted) for the
  /// differential tests. Off for benches — the order-insensitive digest is
  /// always computed.
  bool capture_traces = false;
};

/// Everything the soak reports. Digest + trace fields are the differential
/// surface: equal across all EngineKinds for the same config.
struct ScaleResult {
  std::string engine;
  int shards = 0;
  int threads = 0;

  // Throughput.
  std::uint64_t useful_events = 0;  // model actions: works + msgs + deliveries
  std::uint64_t engine_events = 0;  // Simulation lifetime events consumed
  double wall_seconds = 0;
  double events_per_sec = 0;  // useful_events / wall_seconds

  // Scheduler.
  double sched_p50_ms = 0;
  double sched_p99_ms = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t occ_conflicts = 0;   // snapshot winner failed validate-commit
  std::uint64_t bind_rejects = 0;    // bind reached a crashed node
  std::uint64_t snapshot_refreshes = 0;
  std::uint64_t sched_failures = 0;  // attempts exhausted

  // Churn.
  std::uint64_t created = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t crash_kills = 0;

  // Workload volume.
  std::uint64_t token_grants = 0;
  std::uint64_t kernel_bursts = 0;
  std::uint64_t nvml_samples = 0;
  std::uint64_t heartbeats = 0;

  // Adversarial tenants (zero when hostile_every == 0).
  std::uint64_t hostile_fenced = 0;  // gates closed on over-budget tenants
  std::uint64_t fenced_bursts = 0;   // bursts rejected at closed gates

  // Watch fan-out economy.
  std::uint64_t watch_events = 0;            // store mutations notified
  std::uint64_t watch_deliveries = 0;        // (event, subscriber) pairs
  std::uint64_t watch_batched_events = 0;    // engine events actually armed
  std::uint64_t watch_unbatched_events = 0;  // what unbatched would have armed
  std::uint64_t devmgr_missed_deliveries = 0;
  std::uint64_t devmgr_resyncs = 0;
  std::uint64_t devmgr_stale_skips = 0;  // resync replays already applied
  std::uint64_t devmgr_mirror_divergence = 0;  // MUST be 0: lost/dup events
  std::uint64_t watch_order_violations = 0;    // MUST be 0: rv order in batch

  // Sharded-engine internals (zero for single-engine kinds).
  std::uint64_t windows = 0;
  std::uint64_t cross_shard_sends = 0;
  std::uint64_t lookahead_violations = 0;  // MUST be 0

  // Differential surface.
  std::uint64_t state_digest = 0;  // canonical final store/pool/mirror state
  std::uint64_t trace_digest = 0;  // per-shard order-insensitive, combined
  std::vector<std::string> shard_traces;  // capture_traces only
};

/// Runs the pod-churn soak on the requested engine. Deterministic: the
/// result (except wall_seconds / events_per_sec) is a pure function of
/// (config, kind-independent model semantics) — byte-equal across kinds.
ScaleResult RunScaleModel(const ScaleConfig& config, EngineKind kind);

const char* EngineKindName(EngineKind kind);

}  // namespace ks::scale
