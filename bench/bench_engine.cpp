// Engine microbenchmark: events/sec of ks::sim::Simulation on workload
// patterns shaped like what the cluster simulation does, plus two
// whole-cluster scenarios that count the engine events a token-heavy and a
// kernel-heavy run schedule.
//
// Patterns:
//   churn-1k / churn-100k   N periodic timers rescheduling themselves,
//                           capturing owner pointer + id + name (the
//                           kubelet-sync / sampler shape)
//   bulk-3M                 one-shot events scheduled en masse, then
//                           drained (workload arrival generation)
//   timeout-90pct           batches of request timeouts, 90% cancelled
//                           before firing (RPC / eviction timeouts)
//   fixed-timeout-90pct     the same churn with one fixed delay through
//                           ScheduleAfterFixed: the token daemon's quota
//                           expiry shape, on a fixed-delay lane instead of
//                           the heap
//   watchdog-100k           per-node detection timer reset (cancel +
//                           reschedule) on every heartbeat — the node
//                           failure-detection shape, tombstone-heavy
//
// Writes BENCH_engine.json (schema ks-bench/1) with one row per pattern
// holding events/sec, and one row per cluster scenario.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness.hpp"
#include "json_report.hpp"
#include "sim/simulation.hpp"
#include "vgpu/token_backend.hpp"

namespace {

using ks::Seconds;

volatile std::uint64_t g_sink = 0;

double NowSec() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now().time_since_epoch())
      .count();
}

/// Callback payload shaped like the simulation's real captures: an owner
/// pointer, a numeric id, and a pod/node name.
struct Payload {
  void* owner = nullptr;
  std::uint64_t id = 0;
  std::string name;
};

double ChurnPattern(std::size_t timers, std::uint64_t total) {
  ks::sim::Simulation sim;
  struct Timer {
    ks::sim::Simulation* sim;
    Payload p;
    void operator()() {
      g_sink = g_sink + p.id + p.name.size();
      Payload np = p;
      np.id++;
      sim->ScheduleAfter(Seconds(1.0 + (p.id % 7) * 0.1),
                         Timer{sim, std::move(np)});
    }
  };
  for (std::size_t i = 0; i < timers; ++i) {
    sim.ScheduleAfter(
        Seconds(0.001 * static_cast<double>(i)),
        Timer{&sim, Payload{&sim, i, "pod-" + std::to_string(i)}});
  }
  const double t0 = NowSec();
  sim.Run(total);
  return static_cast<double>(total) / (NowSec() - t0);
}

double BulkPattern(std::uint64_t n) {
  ks::sim::Simulation sim;
  struct Fire {
    Payload p;
    void operator()() { g_sink = g_sink + p.id + p.name.size(); }
  };
  const double t0 = NowSec();
  for (std::uint64_t i = 0; i < n; ++i) {
    sim.ScheduleAt(
        Seconds(static_cast<double>((i * 2654435761ull) % 1000000)),
        Fire{Payload{nullptr, i, "job-" + std::to_string(i % 97)}});
  }
  sim.Run();
  return static_cast<double>(n) / (NowSec() - t0);
}

/// Batches of 1000 timeouts, 90% cancelled. `fixed_lane` arms every one
/// with the same 10 s delay on a fixed-delay lane; otherwise the delays
/// spread over 13 values on the heap.
double TimeoutPattern(std::uint64_t n, bool fixed_lane) {
  ks::sim::Simulation sim;
  struct Fire {
    Payload p;
    void operator()() { g_sink = g_sink + p.id; }
  };
  std::vector<std::uint64_t> ids(1000);
  const double t0 = NowSec();
  std::uint64_t done = 0;
  while (done < n) {
    for (int i = 0; i < 1000; ++i) {
      Fire fire{Payload{nullptr, done + static_cast<std::uint64_t>(i),
                        "req-" + std::to_string(i % 31)}};
      ids[static_cast<std::size_t>(i)] =
          fixed_lane ? sim.ScheduleAfterFixed(Seconds(10), std::move(fire))
                     : sim.ScheduleAfter(Seconds(10 + i % 13),
                                         std::move(fire));
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 10 != 0) sim.Cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.RunUntil(sim.Now() + Seconds(30));
    done += 1000;
  }
  return static_cast<double>(n) / (NowSec() - t0);
}

double WatchdogPattern(std::size_t nodes, std::uint64_t total) {
  ks::sim::Simulation sim;
  std::vector<std::uint64_t> detect(nodes, 0);
  struct Heartbeat {
    ks::sim::Simulation* sim;
    std::vector<std::uint64_t>* detect;
    std::uint64_t node;
    void operator()() {
      std::uint64_t& d = (*detect)[node];
      if (d != 0) sim->Cancel(d);
      const std::uint64_t n = node;
      d = sim->ScheduleAfter(Seconds(10), [n]() { g_sink = g_sink + n; });
      sim->ScheduleAfter(Seconds(1), Heartbeat{sim, detect, node});
    }
  };
  for (std::size_t i = 0; i < nodes; ++i) {
    sim.ScheduleAfter(Seconds(0.00001 * static_cast<double>(i)),
                      Heartbeat{&sim, &detect, i});
  }
  const double t0 = NowSec();
  sim.Run(total);
  return static_cast<double>(total) / (NowSec() - t0);
}

struct PatternResult {
  std::string name;
  double events_per_sec = 0.0;
};

// ---------------------------------------------------------------------------
// Token-heavy cluster scenario: how many engine events the per-node daemon
// schedules, and how fast the engine retires them. 16 devices x 4 greedy
// containers each, staggered arrivals, 30 simulated seconds of continuous
// token exchange — the renewal-storm shape every daemon deadline rides.

struct GreedyTokenClient : ks::vgpu::TokenClient {
  ks::vgpu::TokenBackend* backend = nullptr;
  ks::ContainerId id{""};
  void OnTokenGranted(ks::Time) override {}
  void OnTokenExpired() override {
    (void)backend->ReleaseToken(id);
    (void)backend->RequestToken(id);
  }
};

struct TokenClusterResult {
  std::uint64_t total_events = 0;
  std::uint64_t grants = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
};

TokenClusterResult TokenClusterScenario() {
  using namespace ks;
  sim::Simulation sim;
  vgpu::TokenBackend backend(&sim);

  const int kDevices = 16;
  const int kContainersPerDevice = 4;
  std::vector<GpuUuid> gpus;
  for (int d = 0; d < kDevices; ++d) {
    gpus.emplace_back("GPU-TC-" + std::to_string(d));
    backend.RegisterDevice(gpus.back());
  }
  std::vector<std::unique_ptr<GreedyTokenClient>> clients;
  for (int c = 0; c < kDevices * kContainersPerDevice; ++c) {
    auto client = std::make_unique<GreedyTokenClient>();
    client->backend = &backend;
    client->id = ContainerId("tc" + std::to_string(c));
    vgpu::ResourceSpec spec;
    spec.gpu_request = 0.2;
    spec.gpu_limit = 1.0;
    if (!backend
             .RegisterContainer(client->id,
                                gpus[static_cast<std::size_t>(c % kDevices)],
                                spec, client.get())
             .ok()) {
      continue;
    }
    // Staggered arrivals (1 ms apart) so deadlines are not in lockstep.
    sim.ScheduleAt(ks::Millis(c), [&backend, id = client->id] {
      (void)backend.RequestToken(id);
    });
    clients.push_back(std::move(client));
  }

  const double t0 = NowSec();
  sim.RunUntil(Seconds(30.0));
  const double wall = NowSec() - t0;

  TokenClusterResult result;
  result.total_events = sim.lifetime_events();
  result.grants = backend.grants();
  result.wall_s = wall;
  result.events_per_sec =
      static_cast<double>(sim.executed()) / (wall > 0.0 ? wall : 1.0);
  return result;
}

// ---------------------------------------------------------------------------
// Kernel-heavy cluster scenario: how many engine events and how much wall
// time a full KubeShare training workload costs. Training jobs issue their
// steps as one back-to-back kernel stream each, and the device retires
// every step on its own engine event.

struct KernelClusterResult {
  std::uint64_t total_events = 0;
  std::size_t completed = 0;
  double wall_s = 0.0;
};

KernelClusterResult KernelClusterScenario() {
  using namespace ks;
  bench::RunOptions opt;
  opt.cluster.nodes = 4;
  opt.cluster.gpus_per_node = 2;
  opt.workload.total_jobs = 32;
  opt.workload.mean_interarrival = Seconds(0.5);
  opt.workload.demand_mean = 0.5;
  opt.workload.demand_stddev = 0.1;
  opt.workload.job_duration = Seconds(30);
  opt.workload.kernel = Millis(5);
  opt.workload.gpu_mem = 0.2;
  opt.workload.seed = 7;
  opt.workload.job_kind = workload::WorkloadConfig::JobKind::kTraining;
  opt.horizon = Minutes(60);
  const double t0 = NowSec();
  const bench::RunResult r = bench::RunWorkload(opt);
  KernelClusterResult result;
  result.total_events = r.total_events;
  result.completed = r.completed;
  result.wall_s = NowSec() - t0;
  return result;
}

}  // namespace

int main() {
  using namespace ks;
  bench::Banner("bench_engine: event-loop throughput",
                "perf microbenchmark (no paper figure)");
  std::printf("\n");

  const std::uint64_t kEvents = 3000000;
  const std::vector<PatternResult> results = {
      {"churn-1k", ChurnPattern(1000, kEvents)},
      {"churn-100k", ChurnPattern(100000, kEvents)},
      {"bulk-3M", BulkPattern(kEvents)},
      {"timeout-90pct", TimeoutPattern(kEvents, /*fixed_lane=*/false)},
      {"fixed-timeout-90pct", TimeoutPattern(kEvents, /*fixed_lane=*/true)},
      {"watchdog-100k", WatchdogPattern(100000, kEvents)},
  };

  Table table({"pattern", "Mev/s"});
  for (const PatternResult& r : results) {
    table.AddRow({r.name, Cell(r.events_per_sec / 1e6, 2)});
  }
  table.Print(std::cout);

  // Token-heavy cluster scenario: one engine event per daemon deadline.
  std::printf(
      "\nToken-cluster scenario: 16 devices x 4 greedy containers, 30 "
      "simulated\nseconds of token exchange. 'total events' counts every "
      "event scheduled on\nthe engine; each daemon deadline is one event.\n\n");
  const TokenClusterResult token = TokenClusterScenario();
  Table token_table({"total events", "grants", "wall (s)", "Mev/s"});
  token_table.AddRow({Cell(static_cast<std::int64_t>(token.total_events)),
                      Cell(static_cast<std::int64_t>(token.grants)),
                      Cell(token.wall_s, 3),
                      Cell(token.events_per_sec / 1e6, 2)});
  token_table.Print(std::cout);

  // Kernel-heavy cluster scenario: scheduled events and wall time of a
  // full KubeShare training workload.
  std::printf(
      "\nKernel-cluster scenario: 8 GPUs, 32 training jobs issuing their "
      "steps as\nback-to-back 5 ms kernel streams. 'total events' counts "
      "every event the\nwhole run scheduled; the device retires each step "
      "on its own event.\n\n");
  const KernelClusterResult kernel = KernelClusterScenario();
  Table kernel_table({"total events", "completed", "wall (s)"});
  kernel_table.AddRow({Cell(static_cast<std::int64_t>(kernel.total_events)),
                       Cell(static_cast<std::int64_t>(kernel.completed)),
                       Cell(kernel.wall_s, 2)});
  kernel_table.Print(std::cout);

  JsonValue report = bench::MakeReport("engine");
  for (const PatternResult& r : results) {
    JsonValue row = JsonValue::Object();
    row.Set("pattern", r.name);
    row.Set("events_per_sec", r.events_per_sec);
    bench::AddRow(report, std::move(row));
  }
  JsonValue token_row = JsonValue::Object();
  token_row.Set("pattern", "token-cluster");
  token_row.Set("total_events", token.total_events);
  token_row.Set("grants", token.grants);
  token_row.Set("events_per_sec", token.events_per_sec);
  bench::AddRow(report, std::move(token_row));
  JsonValue kernel_row = JsonValue::Object();
  kernel_row.Set("pattern", "kernel-cluster");
  kernel_row.Set("total_events", kernel.total_events);
  kernel_row.Set("completed", kernel.completed);
  bench::AddRow(report, std::move(kernel_row));
  const std::string path = bench::WriteReport(report);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
