#include "scale/cluster_model.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "sim/simulation.hpp"

namespace ks::scale {
namespace {

using sim::ShardedSimulation;
using sim::ShardForIndex;
using sim::SplitMix64;

// ---------------------------------------------------------------------------
// Lane discipline.
//
// Every model activity fires at a time of the form  m * window + lane  —
// window-quantized with a per-class microsecond offset. Consequences:
//  * two events at the same microsecond are always the same class, and
//    same-class events for distinct entities commute (a token grant for pod
//    A and one for pod B touch disjoint state), so engine tie-breaking
//    order — the one thing that differs between the single and sharded
//    engines, and between per-entry and calendar posting — can never change
//    model state or the (sorted) traces;
//  * cross-shard messages fire exactly on window boundaries (lane 0) and
//    their processing happens in the drain tick one microsecond later,
//    after *all* same-window arrivals have been appended — the drain sorts
//    its inbox canonically, which erases the one genuinely engine-dependent
//    ordering (append interleaving across source shards);
//  * window-quantization means all same-class work in a shard-window shares
//    ONE calendar bucket, so the scale path spends one engine event where
//    the per-entry baseline spends dozens — the event economy the bench
//    measures.
enum Lane : std::int64_t {
  kLaneMsg = 0,       // cross-shard message appends; node crash/recover
  kLaneDrain = 1,     // per-shard inbox drains
  kLaneToken = 2,     // token-renewal grants
  kLaneKernel = 3,    // kernel bursts
  kLaneNvml = 4,      // per-node NVML samples
  kLaneComplete = 5,  // pod completions
  kLaneHeartbeat = 6, // kubelet heartbeats
  kLaneControl = 7,   // global: creations, scheduler ticks, watch delivery
};

enum class WorkKind : std::uint8_t {
  kCreate = 0,
  kToken = 1,
  kKernel = 2,
  kNvml = 3,
  kComplete = 4,
  kHeartbeat = 5,
  kCrash = 6,
  kRecover = 7,
};

struct Work {
  WorkKind kind;
  std::uint32_t a = 0;  // pod uid or node id
};

enum class MsgKind : std::uint8_t {
  kBind = 0,        // global -> node: a=uid, b=node
  kBindReject = 1,  // node -> global: a=uid, b=node (node was down)
  kPodExit = 2,     // node -> global: a=uid, b=(node<<1)|ok
  kNodeDown = 3,    // node -> global: a=node
  kNodeUp = 4,      // node -> global: a=node
  kHeartbeat = 5,   // node -> global: a=node
};

struct Msg {
  MsgKind kind;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

bool MsgLess(const Msg& x, const Msg& y) {
  if (x.kind != y.kind) return x.kind < y.kind;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

bool WorkLess(const Work& x, const Work& y) {
  if (x.kind != y.kind) return x.kind < y.kind;
  return x.a < y.a;
}

// Store-visible pod lifecycle (the global-shard mirror of truth).
enum class PodState : std::uint8_t {
  kPending = 0,
  kScheduled = 1,
  kDone = 2,
  kFailed = 3,
};

struct StoreRec {
  PodState state = PodState::kPending;
  std::uint32_t node = 0xffffffff;
  std::uint64_t version = 0;
  Time created{0};
  Time scheduled{0};
  Time finished{0};
  Time last_mutated{0};
  std::uint32_t attempts = 0;
};

struct WatchEv {
  std::uint64_t version;
  std::uint32_t uid;
  PodState state;
  std::uint32_t node;
};

// ---------------------------------------------------------------------------
// Engine facade: the model runs unmodified on either engine; only event
// placement differs. Shard indices are ignored by the single engine.
class EngineFacade {
 public:
  virtual ~EngineFacade() = default;
  virtual void At(int shard, Time t, sim::EventCallback fn) = 0;
  virtual Time Now(int shard) const = 0;
  virtual void RunUntil(Time t) = 0;
  virtual std::uint64_t engine_events() const = 0;
  virtual std::uint64_t windows() const { return 0; }
  virtual std::uint64_t cross_shard_sends() const { return 0; }
  virtual std::uint64_t lookahead_violations() const { return 0; }
  virtual Status CapacityStatus() const = 0;
};

class SingleEngine final : public EngineFacade {
 public:
  void At(int, Time t, sim::EventCallback fn) override {
    sim_.ScheduleAt(t, std::move(fn));
  }
  Time Now(int) const override { return sim_.Now(); }
  void RunUntil(Time t) override { sim_.RunUntil(t); }
  std::uint64_t engine_events() const override {
    return sim_.lifetime_events();
  }
  Status CapacityStatus() const override { return sim_.CapacityStatus(); }

 private:
  sim::Simulation sim_;
};

class ShardedEngine final : public EngineFacade {
 public:
  explicit ShardedEngine(sim::ShardedConfig cfg) : sharded_(cfg) {}
  void At(int shard, Time t, sim::EventCallback fn) override {
    sharded_.ScheduleAt(shard, t, std::move(fn));
  }
  Time Now(int shard) const override { return sharded_.Now(shard); }
  void RunUntil(Time t) override { sharded_.RunUntil(t); }
  std::uint64_t engine_events() const override {
    return sharded_.lifetime_events();
  }
  std::uint64_t windows() const override { return sharded_.windows(); }
  std::uint64_t cross_shard_sends() const override {
    return sharded_.cross_shard_sends();
  }
  std::uint64_t lookahead_violations() const override {
    return sharded_.lookahead_violations();
  }
  Status CapacityStatus() const override { return sharded_.CapacityStatus(); }

 private:
  ShardedSimulation sharded_;
};

// Hot per-shard accumulators, cache-line separated: node shards write them
// concurrently under threaded drains.
struct alignas(64) ShardStats {
  std::uint64_t works = 0;
  std::uint64_t msgs = 0;
  std::uint64_t token_grants = 0;
  std::uint64_t kernel_bursts = 0;
  std::uint64_t nvml_samples = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t completions = 0;
  std::uint64_t crash_kills = 0;
  std::uint64_t hostile_fences = 0;
  std::uint64_t fenced_bursts = 0;
  // Order-insensitive trace digest: commutative sum + xor of entry hashes,
  // so engine tie-breaking order cannot affect it, but any changed /
  // missing / duplicated entry does.
  std::uint64_t trace_sum = 0;
  std::uint64_t trace_xor = 0;
  std::uint64_t trace_count = 0;
};

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// ---------------------------------------------------------------------------
class ClusterModel {
 public:
  ClusterModel(const ScaleConfig& cfg, EngineFacade* engine, bool calendar,
               bool batched_watch)
      : cfg_(cfg),
        engine_(engine),
        calendar_mode_(calendar),
        batched_watch_(batched_watch),
        w_(cfg.window.count()) {
    assert(w_ >= 8);
    slots_per_node_ = cfg_.gpu_slots_per_node > 0
                          ? cfg_.gpu_slots_per_node
                          : std::max<int>(1, 2 * cfg_.sharepods / cfg_.nodes);
    shard_count_ = cfg_.node_shards + 1;
    max_uids_ = static_cast<std::uint32_t>(
        cfg_.sharepods * 3 + cfg_.nodes + 1024);

    // uid- and node-indexed state. Preallocated once: vectors must never
    // reallocate mid-run (node shards hold references concurrently).
    store_.resize(max_uids_);
    mirror_version_.assign(max_uids_, 0);
    mirror_state_.assign(max_uids_, PodState::kPending);
    alive_.assign(max_uids_, 0);
    token_fenced_.assign(max_uids_, 0);
    hostile_grants_.assign(max_uids_, 0);
    node_shard_.resize(cfg_.nodes);
    node_up_.assign(cfg_.nodes, 1);
    node_sched_.assign(cfg_.nodes, 1);
    auth_load_.assign(cfg_.nodes, 0);
    node_load_.assign(cfg_.nodes, 0);
    last_heartbeat_.assign(cfg_.nodes, Time{0});
    resident_.resize(cfg_.nodes);
    snapshot_.assign(cfg_.nodes, 0);

    stats_.resize(shard_count_);
    inbox_.resize(shard_count_);
    drain_armed_.assign(shard_count_, 0);
    calendar_.resize(shard_count_);
    if (cfg_.capture_traces) trace_text_.resize(shard_count_);

    // Deterministic shard assignment: seeded hash of the node index — never
    // pointer values or container order (satellite fix; keeps
    // BENCH_scale.json byte-reproducible across runs and platforms).
    for (int n = 0; n < cfg_.nodes; ++n) {
      node_shard_[n] = ShardForIndex(cfg_.seed, n, cfg_.node_shards);
    }
  }

  void Setup() {
    // Initial sharePods: created on the global shard, staggered across the
    // control lane of the first second's windows.
    const std::int64_t create_slots = std::max<std::int64_t>(
        1, Seconds(1).count() / w_);
    for (int i = 0; i < cfg_.sharepods; ++i) {
      const std::uint32_t uid = next_uid_++;
      const Time t{Duration{(i % create_slots) * w_ + kLaneControl}};
      Post(ShardedSimulation::kGlobalShard, t, Work{WorkKind::kCreate, uid});
    }
    // Per-node periodic instruments.
    for (std::uint32_t n = 0; n < static_cast<std::uint32_t>(cfg_.nodes);
         ++n) {
      const int shard = node_shard_[n];
      Post(shard, FirstOnGrid(Time{0}, Phase(0xA11Au, n, cfg_.nvml_period),
                              cfg_.nvml_period, kLaneNvml),
           Work{WorkKind::kNvml, n});
      Post(shard, FirstOnGrid(Time{0}, Phase(0xBEA7u, n, cfg_.heartbeat),
                              cfg_.heartbeat, kLaneHeartbeat),
           Work{WorkKind::kHeartbeat, n});
    }
    // Chaos: pre-armed crash/recover pairs on deterministic victims.
    std::set<std::uint32_t> victims;
    std::uint64_t draw = 0;
    while (static_cast<int>(victims.size()) < cfg_.crash_nodes &&
           static_cast<int>(victims.size()) < cfg_.nodes) {
      victims.insert(static_cast<std::uint32_t>(
          Draw(0xC4A5Bu, draw++) % cfg_.nodes));
    }
    int i = 0;
    for (const std::uint32_t n : victims) {
      const Time down = AlignDown(cfg_.crash_at + cfg_.crash_stagger * i);
      const Time up = AlignDown(down + cfg_.crash_downtime);
      Post(node_shard_[n], down + Duration{kLaneMsg},
           Work{WorkKind::kCrash, n});
      Post(node_shard_[n], up + Duration{kLaneMsg},
           Work{WorkKind::kRecover, n});
      ++i;
    }
    // DevMgr informer crash + resync.
    for (int c = 0; c < cfg_.devmgr_crashes; ++c) {
      const Time down{AlignDown(cfg_.devmgr_crash_at + cfg_.window * c) +
                      Duration{kLaneControl}};
      const Time up{AlignDown(Time{down.count() - kLaneControl} +
                              cfg_.devmgr_resync_after) +
                    Duration{kLaneControl}};
      engine_->At(ShardedSimulation::kGlobalShard, down, [this] {
        devmgr_subscribed_ = false;
      });
      engine_->At(ShardedSimulation::kGlobalShard, up, [this] {
        devmgr_subscribed_ = true;
        ++devmgr_resyncs_;
        // Informer relist: replay current store state as Added events at
        // the current versions. Already-applied versions are skipped —
        // that idempotence is the no-duplicate property under test.
        for (std::uint32_t uid = 1; uid < next_uid_; ++uid) {
          const StoreRec& r = store_[uid];
          ApplyMirror(WatchEv{r.version, uid, r.state, r.node});
        }
      });
    }
  }

  ScaleResult Finish(double wall_seconds) {
    ScaleResult out;
    out.shards = cfg_.node_shards;
    out.useful_events = 0;
    for (const ShardStats& s : stats_) {
      out.useful_events += s.works + s.msgs;
      out.token_grants += s.token_grants;
      out.kernel_bursts += s.kernel_bursts;
      out.nvml_samples += s.nvml_samples;
      out.heartbeats += s.heartbeats;
      out.crash_kills += s.crash_kills;
      out.hostile_fenced += s.hostile_fences;
      out.fenced_bursts += s.fenced_bursts;
    }
    out.useful_events += watch_deliveries_;
    out.engine_events = engine_->engine_events();
    out.wall_seconds = wall_seconds;
    out.events_per_sec =
        wall_seconds > 0 ? static_cast<double>(out.useful_events) /
                               wall_seconds
                         : 0;
    out.scheduled = scheduled_;
    out.occ_conflicts = occ_conflicts_;
    out.bind_rejects = bind_rejects_;
    out.snapshot_refreshes = snapshot_refreshes_;
    out.sched_failures = sched_failures_;
    out.created = created_;
    out.completed = completed_ok_;
    out.failed = failed_;
    out.watch_events = watch_events_;
    out.watch_deliveries = watch_deliveries_;
    out.watch_batched_events = watch_batched_events_;
    out.watch_unbatched_events = watch_deliveries_;
    out.devmgr_missed_deliveries = devmgr_missed_;
    out.devmgr_resyncs = devmgr_resyncs_;
    out.devmgr_stale_skips = devmgr_stale_skips_;
    out.watch_order_violations = watch_order_violations_;
    out.windows = engine_->windows();
    out.cross_shard_sends = engine_->cross_shard_sends();
    out.lookahead_violations = engine_->lookahead_violations();

    // Scheduler latency percentiles (creation -> placement commit).
    auto pct = [this](double p) -> double {
      if (sched_latency_us_.empty()) return 0;
      std::vector<std::int64_t> v = sched_latency_us_;
      const std::size_t idx = static_cast<std::size_t>(
          p * static_cast<double>(v.size() - 1));
      std::nth_element(v.begin(), v.begin() + idx, v.end());
      return static_cast<double>(v[idx]) / 1000.0;
    };
    out.sched_p50_ms = pct(0.50);
    out.sched_p99_ms = pct(0.99);

    // Mirror divergence: after resync the DevMgr view must equal the store
    // — any lost or duplicated watch event shows up here. Mutations so
    // close to the horizon that their delivery was still in flight when
    // the run was cut are excluded (the horizon is a measurement artifact,
    // not a lost event).
    const Time in_flight_after =
        cfg_.duration - cfg_.api_latency - cfg_.window - Duration{8};
    for (std::uint32_t uid = 1; uid < next_uid_; ++uid) {
      if (store_[uid].last_mutated >= in_flight_after) continue;
      if (mirror_state_[uid] != store_[uid].state ||
          mirror_version_[uid] != store_[uid].version) {
        ++out.devmgr_mirror_divergence;
      }
    }

    // State digest: canonical walk of the final store + authoritative loads
    // + counters. Engine-order independent by construction (sorted walk).
    std::uint64_t d = SplitMix64(cfg_.seed ^ 0xD16E57ull);
    auto mix = [&d](std::uint64_t x) { d = SplitMix64(d ^ x); };
    mix(next_uid_);
    for (std::uint32_t uid = 1; uid < next_uid_; ++uid) {
      const StoreRec& r = store_[uid];
      mix(static_cast<std::uint64_t>(r.state) | (std::uint64_t{r.node} << 8));
      mix(r.version);
      mix(static_cast<std::uint64_t>(r.created.count()));
      mix(static_cast<std::uint64_t>(r.scheduled.count()));
      mix(static_cast<std::uint64_t>(r.finished.count()));
    }
    for (int n = 0; n < cfg_.nodes; ++n) {
      mix(static_cast<std::uint64_t>(auth_load_[n]) |
          (std::uint64_t{node_sched_[n]} << 32) |
          (std::uint64_t{node_up_[n]} << 33));
      mix(static_cast<std::uint64_t>(last_heartbeat_[n].count()));
    }
    mix(scheduled_);
    mix(occ_conflicts_);
    mix(bind_rejects_);
    mix(completed_ok_);
    mix(failed_);
    mix(watch_events_);
    out.state_digest = d;

    // Trace digest: the per-shard accumulators are commutative over
    // individual trace entries, so summing them across shards before the
    // final mix makes the digest independent of the shard partition too —
    // the same physics under 1, 4 or 16 shards digests identically.
    std::uint64_t sum = 0, xr = 0, count = 0;
    for (int s = 0; s < shard_count_; ++s) {
      sum += stats_[s].trace_sum;
      xr ^= stats_[s].trace_xor;
      count += stats_[s].trace_count;
    }
    std::uint64_t td = SplitMix64(cfg_.seed ^ 0x7AACEull);
    td = SplitMix64(td ^ sum);
    td = SplitMix64(td ^ xr);
    td = SplitMix64(td ^ count);
    out.trace_digest = td;

    if (cfg_.capture_traces) {
      out.shard_traces.resize(shard_count_);
      for (int s = 0; s < shard_count_; ++s) {
        std::sort(trace_text_[s].begin(), trace_text_[s].end());
        std::string joined;
        for (const std::string& line : trace_text_[s]) {
          joined += line;
          joined += '\n';
        }
        out.shard_traces[s] = std::move(joined);
      }
    }
    return out;
  }

 private:
  // --- deterministic draws (stateless: pure functions of seed + tags) ----
  std::uint64_t Draw(std::uint64_t tag, std::uint64_t x) const {
    return SplitMix64(SplitMix64(cfg_.seed ^ tag) ^ x);
  }
  /// Phase (in whole windows) of a periodic activity for entity `x`.
  std::int64_t Phase(std::uint64_t tag, std::uint64_t x,
                     Duration period) const {
    return static_cast<std::int64_t>(
        Draw(tag, x) % static_cast<std::uint64_t>(period.count() / w_));
  }

  /// Whether the pod models an adversarial tenant (revocation-ignoring).
  /// A pure function of the uid so every engine kind agrees without state.
  bool IsHostile(std::uint32_t uid) const {
    return cfg_.hostile_every > 0 &&
           uid % static_cast<std::uint32_t>(cfg_.hostile_every) == 0;
  }

  Time AlignDown(Time t) const { return Time{Duration{(t.count() / w_) * w_}}; }
  /// Next window boundary strictly after t.
  Time NextWindow(Time t) const {
    return Time{Duration{(t.count() / w_ + 1) * w_}};
  }
  /// First time strictly after `now` of the form
  /// (phase + k * period/w) * w + lane.
  Time FirstOnGrid(Time now, std::int64_t phase_windows, Duration period,
                   std::int64_t lane) const {
    const std::int64_t first = phase_windows * w_ + lane;
    if (now.count() < first) return Time{Duration{first}};
    const std::int64_t k =
        CeilDiv(now.count() - first + 1, period.count());
    return Time{Duration{first + k * period.count()}};
  }

  // --- posting ------------------------------------------------------------
  /// Schedules a unit of model work. Baseline mode: one engine event per
  /// work. Calendar mode: works land in a per-shard per-time bucket; the
  /// first arms ONE engine event, the drain runs the bucket in canonical
  /// order (same-time works commute by the lane discipline, so this order
  /// is immaterial to state — sorting just makes it manifestly so).
  void Post(int shard, Time t, Work w) {
    if (!calendar_mode_) {
      engine_->At(shard, t, [this, shard, w] { RunWork(shard, w); });
      return;
    }
    auto [it, fresh] = calendar_[shard].try_emplace(t);
    it->second.push_back(w);
    if (fresh) {
      engine_->At(shard, t, [this, shard, t] { DrainBucket(shard, t); });
    }
  }

  void DrainBucket(int shard, Time t) {
    auto node = calendar_[shard].extract(t);
    if (node.empty()) return;
    std::vector<Work>& works = node.mapped();
    std::sort(works.begin(), works.end(), WorkLess);
    for (const Work& w : works) RunWork(shard, w);
  }

  /// Cross-shard message: fires on the next window boundary at or after
  /// now + api_latency (lane 0), is appended to the target's inbox, and is
  /// processed by the drain tick 1 µs later — after every same-window
  /// arrival, in canonical (not arrival) order.
  void Send(int from_shard, int to_shard, Msg m) {
    const Time now = NowOf(from_shard);
    const Time fire = NextWindow(now + cfg_.api_latency - cfg_.window);
    engine_->At(to_shard, fire, [this, to_shard, m] {
      inbox_[to_shard].push_back(m);
      if (!drain_armed_[to_shard]) {
        drain_armed_[to_shard] = 1;
        const Time at = NowOf(to_shard) + Duration{kLaneDrain};
        engine_->At(to_shard, at, [this, to_shard] { DrainInbox(to_shard); });
      }
    });
  }

  Time NowOf(int shard) const { return engine_->Now(shard); }

  void DrainInbox(int shard) {
    drain_armed_[shard] = 0;
    std::vector<Msg> msgs = std::move(inbox_[shard]);
    inbox_[shard].clear();
    std::sort(msgs.begin(), msgs.end(), MsgLess);
    for (const Msg& m : msgs) {
      ++stats_[shard].msgs;
      if (shard == ShardedSimulation::kGlobalShard) {
        HandleGlobalMsg(m);
      } else {
        HandleNodeMsg(shard, m);
      }
    }
  }

  // --- work execution -------------------------------------------------------
  void RunWork(int shard, Work w);
  void HandleGlobalMsg(const Msg& m);
  void HandleNodeMsg(int shard, const Msg& m);
  std::uint32_t PodNode(std::uint32_t uid) const;

  void Trace(int shard, char kind, Time t, std::uint64_t a, std::uint64_t b) {
    ShardStats& s = stats_[shard];
    std::uint64_t h = SplitMix64(
        (static_cast<std::uint64_t>(kind) << 56) ^
        static_cast<std::uint64_t>(t.count()));
    h = SplitMix64(h ^ (a << 1) ^ (b << 33));
    s.trace_sum += h;
    s.trace_xor ^= h;
    ++s.trace_count;
    if (cfg_.capture_traces) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "t=%012lld %c a=%llu b=%llu",
                    static_cast<long long>(t.count()), kind,
                    static_cast<unsigned long long>(a),
                    static_cast<unsigned long long>(b));
      trace_text_[shard].push_back(buf);
    }
  }

  // --- global-shard store + watch -------------------------------------------
  void StoreMutate(std::uint32_t uid, PodState state, std::uint32_t node,
                   Time now) {
    StoreRec& r = store_[uid];
    r.state = state;
    r.node = node;
    r.version = ++store_version_;
    r.last_mutated = now;
    ++watch_events_;
    const WatchEv ev{r.version, uid, state, node};
    const Time at = NextWindow(now + cfg_.api_latency - cfg_.window) +
                    Duration{kLaneControl};
    for (int sub = 0; sub < kSubscribers; ++sub) {
      ++watch_deliveries_;
      if (batched_watch_) {
        auto [it, fresh] = watch_pending_[sub].try_emplace(at);
        it->second.push_back(ev);
        if (fresh) {
          ++watch_batched_events_;
          engine_->At(ShardedSimulation::kGlobalShard, at,
                      [this, sub, at] { DeliverBatch(sub, at); });
        }
      } else {
        ++watch_batched_events_;
        engine_->At(ShardedSimulation::kGlobalShard, at,
                    [this, sub, ev] { DeliverOne(sub, ev); });
      }
    }
  }

  void DeliverBatch(int sub, Time at) {
    auto node = watch_pending_[sub].extract(at);
    if (node.empty()) return;
    std::uint64_t last_version = 0;
    for (const WatchEv& ev : node.mapped()) {
      // Resource-version ordering within a batch: enqueue order is store
      // mutation order, so versions must be strictly increasing.
      if (ev.version <= last_version) ++watch_order_violations_;
      last_version = ev.version;
      DeliverOne(sub, ev);
    }
  }

  void DeliverOne(int sub, const WatchEv& ev) {
    if (sub == kSubSched) {
      OnSchedEvent(ev);
    } else {
      if (!devmgr_subscribed_) {
        ++devmgr_missed_;
        return;
      }
      ApplyMirror(ev);
    }
  }

  void ApplyMirror(const WatchEv& ev) {
    if (ev.version <= mirror_version_[ev.uid]) {
      ++devmgr_stale_skips_;  // resync replay of an already-applied version
      return;
    }
    mirror_version_[ev.uid] = ev.version;
    mirror_state_[ev.uid] = ev.state;
  }

  // --- scheduler (global shard) ----------------------------------------------
  void OnSchedEvent(const WatchEv& ev) {
    if (ev.state != PodState::kPending) return;
    sched_pending_.push_back(ev.uid);
    ArmSchedTick();
  }

  void ArmSchedTick() {
    if (sched_tick_armed_) return;
    sched_tick_armed_ = true;
    const Time now = NowOf(ShardedSimulation::kGlobalShard);
    const Time at = NextWindow(now) + Duration{kLaneControl};
    engine_->At(ShardedSimulation::kGlobalShard, at,
                [this, at] { SchedTick(at); });
  }

  void SchedTick(Time now) {
    sched_tick_armed_ = false;
    // Snapshot-based scheduling: one consistent copy of the per-node loads
    // per tick; placement probes read the snapshot, the commit validates
    // against the authoritative table (validate-on-commit — a stale winner
    // is a counted conflict, never a wrong placement).
    snapshot_ = auth_load_;
    ++snapshot_refreshes_;
    std::vector<std::uint32_t> batch = std::move(sched_pending_);
    sched_pending_.clear();
    for (const std::uint32_t uid : batch) ScheduleOne(uid, now);
    if (!sched_pending_.empty()) ArmSchedTick();
  }

  void ScheduleOne(std::uint32_t uid, Time now) {
    StoreRec& r = store_[uid];
    if (r.state != PodState::kPending) return;
    if (r.attempts >= kMaxAttempts) {
      ++sched_failures_;
      StoreMutate(uid, PodState::kFailed, 0xffffffff, now);
      return;
    }
    // Power-of-two-choices against the snapshot.
    const std::uint64_t att = r.attempts++;
    const std::uint32_t n1 = static_cast<std::uint32_t>(
        Draw(0x9B0BEull, (std::uint64_t{uid} << 20) ^ (att * 2)) % cfg_.nodes);
    const std::uint32_t n2 = static_cast<std::uint32_t>(
        Draw(0x9B0BEull, (std::uint64_t{uid} << 20) ^ (att * 2 + 1)) %
        cfg_.nodes);
    std::uint32_t pick = snapshot_[n1] <= snapshot_[n2] ? n1 : n2;
    for (int probe = 0; probe < 2; ++probe) {
      // Validate-on-commit against the authoritative table.
      if (node_sched_[pick] && auth_load_[pick] < slots_per_node_) {
        ++auth_load_[pick];
        ++snapshot_[pick];
        r.scheduled = now;
        sched_latency_us_.push_back((now - r.created).count());
        ++scheduled_;
        StoreMutate(uid, PodState::kScheduled, pick, now);
        Trace(ShardedSimulation::kGlobalShard, 'P', now, uid, pick);
        Send(ShardedSimulation::kGlobalShard, node_shard_[pick],
             Msg{MsgKind::kBind, uid, pick});
        return;
      }
      ++occ_conflicts_;
      pick = pick == n1 ? n2 : n1;
    }
    // No capacity this tick: park for the next one.
    sched_pending_.push_back(uid);
  }

  void CreatePod(std::uint32_t uid, Time now) {
    ++created_;
    StoreRec& r = store_[uid];
    r.created = now;
    StoreMutate(uid, PodState::kPending, 0xffffffff, now);
  }

  // --- configuration + state ---------------------------------------------
  static constexpr int kSubSched = 0;
  static constexpr int kSubDevMgr = 1;
  static constexpr int kSubscribers = 2;
  static constexpr std::uint32_t kMaxAttempts = 64;

  const ScaleConfig cfg_;
  EngineFacade* engine_;
  const bool calendar_mode_;
  const bool batched_watch_;
  const std::int64_t w_;
  int shard_count_;
  int slots_per_node_;
  std::uint32_t max_uids_;

  // Global-shard state.
  std::uint32_t next_uid_ = 1;
  std::uint64_t store_version_ = 0;
  std::vector<StoreRec> store_;
  std::vector<std::uint64_t> mirror_version_;
  std::vector<PodState> mirror_state_;
  bool devmgr_subscribed_ = true;
  std::map<Time, std::vector<WatchEv>> watch_pending_[kSubscribers];
  std::vector<std::uint32_t> sched_pending_;
  bool sched_tick_armed_ = false;
  std::vector<std::int32_t> auth_load_;
  std::vector<std::int32_t> snapshot_;
  std::vector<std::uint8_t> node_sched_;
  std::vector<Time> last_heartbeat_;
  std::vector<std::int64_t> sched_latency_us_;

  // Node-shard state (indexed by node / uid; each entry touched only by its
  // owner shard).
  std::vector<int> node_shard_;
  std::vector<std::uint8_t> node_up_;
  std::vector<std::int32_t> node_load_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> token_fenced_;
  std::vector<std::uint16_t> hostile_grants_;
  std::vector<std::set<std::uint32_t>> resident_;

  // Per-shard infrastructure.
  std::vector<ShardStats> stats_;
  std::vector<std::vector<Msg>> inbox_;
  std::vector<std::uint8_t> drain_armed_;
  std::vector<std::map<Time, std::vector<Work>>> calendar_;
  std::vector<std::vector<std::string>> trace_text_;

  // Counters (global-shard only).
  std::uint64_t created_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t completed_ok_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t occ_conflicts_ = 0;
  std::uint64_t bind_rejects_ = 0;
  std::uint64_t snapshot_refreshes_ = 0;
  std::uint64_t sched_failures_ = 0;
  std::uint64_t watch_events_ = 0;
  std::uint64_t watch_deliveries_ = 0;
  std::uint64_t watch_batched_events_ = 0;
  std::uint64_t watch_order_violations_ = 0;
  std::uint64_t devmgr_missed_ = 0;
  std::uint64_t devmgr_resyncs_ = 0;
  std::uint64_t devmgr_stale_skips_ = 0;
};

// --- work execution -------------------------------------------------------

void ClusterModel::RunWork(int shard, Work w) {
  ShardStats& s = stats_[shard];
  ++s.works;
  const Time now = NowOf(shard);
  switch (w.kind) {
    case WorkKind::kCreate: {
      CreatePod(w.a, now);
      break;
    }
    case WorkKind::kToken: {
      const std::uint32_t uid = w.a;
      if (!alive_[uid]) break;  // stale timer of an exited pod: fizzles
      if (token_fenced_[uid]) break;  // gate closed: renewal refused
      if (IsHostile(uid) &&
          hostile_grants_[uid] >= cfg_.hostile_fence_after) {
        // The over-budget tenant asks again; the backend fences its gate
        // instead of granting. No further grants — but the tenant keeps
        // bursting (see kKernel), which is exactly the containment shape
        // the full vgpu stack enforces.
        token_fenced_[uid] = 1;
        ++s.hostile_fences;
        Trace(shard, 'G', now, uid, store_[uid].node);
        break;
      }
      ++s.token_grants;
      if (IsHostile(uid)) ++hostile_grants_[uid];
      Trace(shard, 'T', now, uid, store_[uid].node);
      Post(shard, now + cfg_.token_quota, w);
      break;
    }
    case WorkKind::kKernel: {
      const std::uint32_t uid = w.a;
      if (!alive_[uid]) break;
      if (token_fenced_[uid]) {
        // Revocation-ignoring flood: rejected at the gate, never useful
        // work, but still traced — hostile schedules are part of the
        // byte-equality surface.
        ++s.fenced_bursts;
        Trace(shard, 'F', now, uid, store_[uid].node);
        Post(shard, now + cfg_.kernel_period, w);
        break;
      }
      ++s.kernel_bursts;
      Trace(shard, 'K', now, uid, store_[uid].node);
      Post(shard, now + cfg_.kernel_period, w);
      break;
    }
    case WorkKind::kNvml: {
      const std::uint32_t node = w.a;
      if (node_up_[node]) {
        ++s.nvml_samples;
        Trace(shard, 'N', now, node,
              static_cast<std::uint64_t>(node_load_[node]));
      }
      Post(shard, now + cfg_.nvml_period, w);
      break;
    }
    case WorkKind::kHeartbeat: {
      const std::uint32_t node = w.a;
      if (node_up_[node]) {
        ++s.heartbeats;
        Send(shard, ShardedSimulation::kGlobalShard,
             Msg{MsgKind::kHeartbeat, node});
      }
      Post(shard, now + cfg_.heartbeat, w);
      break;
    }
    case WorkKind::kComplete: {
      const std::uint32_t uid = w.a;
      if (!alive_[uid]) break;  // killed by a crash before finishing
      alive_[uid] = 0;
      const std::uint32_t node = PodNode(uid);
      resident_[node].erase(uid);
      --node_load_[node];
      ++s.completions;
      Trace(shard, 'C', now, uid, node);
      Send(shard, ShardedSimulation::kGlobalShard,
           Msg{MsgKind::kPodExit, uid, (node << 1) | 1u});
      break;
    }
    case WorkKind::kCrash: {
      const std::uint32_t node = w.a;
      node_up_[node] = 0;
      Trace(shard, 'D', now, node, resident_[node].size());
      // std::set iterates in uid order — deterministic kill sequence.
      for (const std::uint32_t uid : resident_[node]) {
        alive_[uid] = 0;
        ++s.crash_kills;
        Trace(shard, 'X', now, uid, node);
        Send(shard, ShardedSimulation::kGlobalShard,
             Msg{MsgKind::kPodExit, uid, (node << 1) | 0u});
      }
      resident_[node].clear();
      node_load_[node] = 0;
      Send(shard, ShardedSimulation::kGlobalShard,
           Msg{MsgKind::kNodeDown, node});
      break;
    }
    case WorkKind::kRecover: {
      const std::uint32_t node = w.a;
      node_up_[node] = 1;
      Trace(shard, 'U', now, node, 0);
      Send(shard, ShardedSimulation::kGlobalShard,
           Msg{MsgKind::kNodeUp, node});
      break;
    }
  }
}

std::uint32_t ClusterModel::PodNode(std::uint32_t uid) const {
  // The node a pod was bound to. Written by the global shard before the
  // bind message is sent, read by the owning node shard after it arrives —
  // the window barrier between the two is the synchronization.
  return store_[uid].node;
}

void ClusterModel::HandleNodeMsg(int shard, const Msg& m) {
  const Time now = NowOf(shard);
  switch (m.kind) {
    case MsgKind::kBind: {
      const std::uint32_t uid = m.a;
      const std::uint32_t node = m.b;
      if (!node_up_[node]) {
        Send(shard, ShardedSimulation::kGlobalShard,
             Msg{MsgKind::kBindReject, uid, node});
        break;
      }
      alive_[uid] = 1;
      resident_[node].insert(uid);
      ++node_load_[node];
      Trace(shard, 'S', now, uid, node);
      // Periodic lanes, phases drawn statelessly from the pod's stream.
      Post(shard,
           FirstOnGrid(now, Phase(0x70CEBull, uid, cfg_.token_quota),
                       cfg_.token_quota, kLaneToken),
           Work{WorkKind::kToken, uid});
      Post(shard,
           FirstOnGrid(now, Phase(0x6E12Full, uid, cfg_.kernel_period),
                       cfg_.kernel_period, kLaneKernel),
           Work{WorkKind::kKernel, uid});
      // Lifetime: uniform on the window grid with the configured mean.
      const std::int64_t min_w =
          std::max<std::int64_t>(1, cfg_.min_lifetime.count() / w_);
      const std::int64_t mean_w =
          std::max(min_w + 1, cfg_.mean_lifetime.count() / w_);
      const std::int64_t span_w = 2 * (mean_w - min_w);
      const std::int64_t life_w =
          min_w + static_cast<std::int64_t>(
                      Draw(0x11FE7ull, uid) % static_cast<std::uint64_t>(
                                                  std::max<std::int64_t>(
                                                      1, span_w)));
      Post(shard,
           Time{Duration{(AlignDown(now).count() / w_ + life_w) * w_ +
                         kLaneComplete}},
           Work{WorkKind::kComplete, uid});
      break;
    }
    default:
      // Node shards receive only binds.
      break;
  }
}

void ClusterModel::HandleGlobalMsg(const Msg& m) {
  const Time now = NowOf(ShardedSimulation::kGlobalShard);
  switch (m.kind) {
    case MsgKind::kPodExit: {
      const std::uint32_t uid = m.a;
      const std::uint32_t node = m.b >> 1;
      const bool ok = (m.b & 1u) != 0;
      --auth_load_[node];
      if (ok) {
        ++completed_ok_;
        StoreMutate(uid, PodState::kDone, node, now);
      } else {
        ++failed_;
        StoreMutate(uid, PodState::kFailed, node, now);
      }
      store_[uid].finished = now;
      // Churn: every exit is replaced by a fresh sharePod, keeping the
      // live-pod target constant for the soak's duration.
      if (next_uid_ < max_uids_) {
        CreatePod(next_uid_++, now);
      }
      break;
    }
    case MsgKind::kBindReject: {
      ++bind_rejects_;
      --auth_load_[m.b];
      // Re-pend through the store: the scheduler learns about the bounced
      // pod through its own watch, exactly like a fresh creation.
      StoreMutate(m.a, PodState::kPending, 0xffffffff, now);
      break;
    }
    case MsgKind::kNodeDown:
      node_sched_[m.a] = 0;
      break;
    case MsgKind::kNodeUp:
      node_sched_[m.a] = 1;
      break;
    case MsgKind::kHeartbeat:
      last_heartbeat_[m.a] = now;
      break;
    default:
      break;
  }
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSingleBaseline:
      return "single-baseline";
    case EngineKind::kSingleBatched:
      return "single-batched";
    case EngineKind::kShardedSerial:
      return "sharded-serial";
    case EngineKind::kShardedParallel:
      return "sharded-parallel";
  }
  return "unknown";
}

ScaleResult RunScaleModel(const ScaleConfig& config, EngineKind kind) {
  std::unique_ptr<EngineFacade> engine;
  const bool sharded = kind == EngineKind::kShardedSerial ||
                       kind == EngineKind::kShardedParallel;
  if (sharded) {
    sim::ShardedConfig sc;
    sc.node_shards = config.node_shards;
    sc.threads = kind == EngineKind::kShardedParallel ? config.threads : 0;
    sc.window = config.window;
    engine = std::make_unique<ShardedEngine>(sc);
  } else {
    engine = std::make_unique<SingleEngine>();
  }
  // The scale-path event economy (work calendars + batched watch fan-out)
  // rides every kind except the baseline, which keeps the pre-sharding
  // one-event-per-activity idiom as the oracle and throughput reference.
  const bool economy = kind != EngineKind::kSingleBaseline;
  ClusterModel model(config, engine.get(), /*calendar=*/economy,
                     /*batched_watch=*/economy);
  model.Setup();
  const auto wall_start = std::chrono::steady_clock::now();
  engine->RunUntil(config.duration);
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall =
      std::chrono::duration<double>(wall_end - wall_start).count();
  ScaleResult out = model.Finish(wall);
  out.engine = EngineKindName(kind);
  out.threads = sharded && kind == EngineKind::kShardedParallel
                    ? config.threads
                    : 0;
  if (!sharded) out.shards = 0;
  Status cap = engine->CapacityStatus();
  assert(cap.ok());
  (void)cap;
  return out;
}

}  // namespace ks::scale
