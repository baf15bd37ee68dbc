// Pod-churn soak at scale: 10k nodes x 100k live sharePods, driven by each
// engine kind in turn (ISSUE: sharded deterministic simulation with batched
// watch fan-out).
//
//   single-baseline   one engine, per-activity events, unbatched fan-out —
//                     the byte-equality oracle and the throughput baseline
//   single-batched    one engine + the scale event economy (work calendars,
//                     batched watch fan-out) — isolates the economy win
//   sharded-serial    ShardedSimulation, serial drain
//   sharded-parallel  ShardedSimulation, KS_SCALE_THREADS workers
//
// All four runs must agree on every deterministic field (useful_events,
// state_digest, trace_digest, scheduler counters); the bench aborts if they
// diverge, so the published numbers are guaranteed to price identical work.
//
// Writes BENCH_scale.json (schema ks-bench/1): one row per engine with
// total_events, events_per_sec, speedup_vs_single, scheduler p50/p99, and
// the watch fan-out economy (events armed vs what unbatched would arm).
//
// Env knobs (CI uses smaller soaks; defaults are the ISSUE scale):
//   KS_SCALE_NODES=10000  KS_SCALE_SHAREPODS=100000  KS_SCALE_SHARDS=16
//   KS_SCALE_THREADS=<hw>  KS_SCALE_DURATION_MS=5000  KS_SCALE_SEED=1
//   KS_SCALE_CRASH_NODES=8  KS_SCALE_DEVMGR_CRASHES=1

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "json_report.hpp"
#include "scale/cluster_model.hpp"

namespace {

std::int64_t EnvInt(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoll(v, nullptr, 10);
}

struct Run {
  ks::scale::EngineKind kind;
  ks::scale::ScaleResult result;
};

}  // namespace

int main() {
  using ks::scale::EngineKind;
  using ks::scale::ScaleConfig;
  using ks::scale::ScaleResult;

  ScaleConfig config;
  config.nodes = static_cast<int>(EnvInt("KS_SCALE_NODES", 10000));
  config.sharepods = static_cast<int>(EnvInt("KS_SCALE_SHAREPODS", 100000));
  config.node_shards = static_cast<int>(EnvInt("KS_SCALE_SHARDS", 16));
  config.duration = ks::Millis(EnvInt("KS_SCALE_DURATION_MS", 5000));
  config.seed = static_cast<std::uint64_t>(EnvInt("KS_SCALE_SEED", 1));
  config.crash_nodes = static_cast<int>(EnvInt("KS_SCALE_CRASH_NODES", 8));
  config.devmgr_crashes =
      static_cast<int>(EnvInt("KS_SCALE_DEVMGR_CRASHES", 1));
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  config.threads = static_cast<int>(
      EnvInt("KS_SCALE_THREADS", hw > 1 ? std::min(hw, config.node_shards + 1)
                                        : 2));

  std::printf("scale soak: %d nodes x %d sharePods, %d shards, %d threads, "
              "%lld ms\n",
              config.nodes, config.sharepods, config.node_shards,
              config.threads,
              static_cast<long long>(config.duration.count() / 1000));

  std::vector<Run> runs;
  for (EngineKind kind :
       {EngineKind::kSingleBaseline, EngineKind::kSingleBatched,
        EngineKind::kShardedSerial, EngineKind::kShardedParallel}) {
    std::printf("  running %-16s ...", ks::scale::EngineKindName(kind));
    std::fflush(stdout);
    Run run{kind, ks::scale::RunScaleModel(config, kind)};
    std::printf(" %10.0f events/s  (%.2fs wall, %llu engine events)\n",
                run.result.events_per_sec, run.result.wall_seconds,
                static_cast<unsigned long long>(run.result.engine_events));
    runs.push_back(std::move(run));
  }

  // Differential guard: the bench only publishes numbers for identical
  // work. Any mismatch here is a correctness bug, not a perf artifact.
  const ScaleResult& oracle = runs.front().result;
  bool diverged = false;
  for (const Run& run : runs) {
    const ScaleResult& r = run.result;
    auto check = [&](const char* field, std::uint64_t got,
                     std::uint64_t want) {
      if (got == want) return;
      std::fprintf(stderr, "DIVERGENCE %s: %s=%llu oracle=%llu\n",
                   r.engine.c_str(), field,
                   static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(want));
      diverged = true;
    };
    check("useful_events", r.useful_events, oracle.useful_events);
    check("state_digest", r.state_digest, oracle.state_digest);
    check("trace_digest", r.trace_digest, oracle.trace_digest);
    check("scheduled", r.scheduled, oracle.scheduled);
    check("completed", r.completed, oracle.completed);
    check("mirror_divergence", r.devmgr_mirror_divergence, 0);
    check("watch_order_violations", r.watch_order_violations, 0);
    check("lookahead_violations", r.lookahead_violations, 0);
  }
  if (diverged) return 1;

  auto report = ks::bench::MakeReport("scale");
  ks::Table table({"engine", "shards", "threads", "events/s", "speedup",
                   "engine events", "sched p99 ms", "fanout events"});
  for (const Run& run : runs) {
    const ScaleResult& r = run.result;
    const double speedup =
        oracle.events_per_sec > 0 ? r.events_per_sec / oracle.events_per_sec
                                  : 0;
    auto row = ks::JsonValue::Object();
    row.Set("engine", r.engine);
    row.Set("shards", r.shards);
    row.Set("threads", r.threads);
    row.Set("nodes", config.nodes);
    row.Set("sharepods", config.sharepods);
    row.Set("total_events", static_cast<std::int64_t>(r.useful_events));
    row.Set("engine_events", static_cast<std::int64_t>(r.engine_events));
    row.Set("wall_seconds", r.wall_seconds);
    row.Set("events_per_sec", r.events_per_sec);
    row.Set("speedup_vs_single", speedup);
    row.Set("sched_p50_ms", r.sched_p50_ms);
    row.Set("sched_p99_ms", r.sched_p99_ms);
    row.Set("scheduled", static_cast<std::int64_t>(r.scheduled));
    row.Set("occ_conflicts", static_cast<std::int64_t>(r.occ_conflicts));
    row.Set("snapshot_refreshes",
            static_cast<std::int64_t>(r.snapshot_refreshes));
    row.Set("watch_deliveries",
            static_cast<std::int64_t>(r.watch_deliveries));
    row.Set("watch_batched_events",
            static_cast<std::int64_t>(r.watch_batched_events));
    row.Set("watch_unbatched_events",
            static_cast<std::int64_t>(r.watch_unbatched_events));
    row.Set("windows", static_cast<std::int64_t>(r.windows));
    row.Set("cross_shard_sends",
            static_cast<std::int64_t>(r.cross_shard_sends));
    row.Set("lookahead_violations",
            static_cast<std::int64_t>(r.lookahead_violations));
    row.Set("mirror_divergence",
            static_cast<std::int64_t>(r.devmgr_mirror_divergence));
    row.Set("watch_order_violations",
            static_cast<std::int64_t>(r.watch_order_violations));
    ks::bench::AddRow(report, std::move(row));

    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
    table.AddRow({r.engine, std::to_string(r.shards),
                  std::to_string(r.threads),
                  std::to_string(static_cast<long long>(r.events_per_sec)),
                  buf, std::to_string(r.engine_events),
                  ks::Cell(r.sched_p99_ms, 3),
                  std::to_string(r.watch_batched_events)});
  }
  table.Print(std::cout);
  const std::string path = ks::bench::WriteReport(report);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
