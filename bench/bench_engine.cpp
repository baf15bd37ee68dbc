// Engine microbenchmark: events/sec and schedules/sec for the current
// ks::sim::Simulation against the pre-change engine, which is embedded
// below verbatim (std::function events in a lazy-deletion
// std::priority_queue with an unordered_set tombstone set). Both engines
// run the same workload patterns in the same process, so the ratio column
// is a like-for-like measurement on this machine.
//
// Patterns, chosen to mirror what the cluster simulation actually does:
//   churn-1k / churn-100k   N periodic timers rescheduling themselves,
//                           capturing owner pointer + id + name (the
//                           kubelet-sync / sampler shape)
//   bulk-1M                 one-shot events scheduled en masse, then
//                           drained (workload arrival generation)
//   timeout-90pct           batches of request timeouts, 90% cancelled
//                           before firing (RPC / eviction timeouts)
//   watchdog-100k           per-node detection timer reset (cancel +
//                           reschedule) on every heartbeat — the node
//                           failure-detection shape, tombstone-heavy
//
// Writes BENCH_engine.json (schema ks-bench/1) with one row per
// (pattern, engine) holding events/sec, plus a ratio row per pattern.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/table.hpp"
#include "harness.hpp"
#include "json_report.hpp"
#include "sim/simulation.hpp"
#include "vgpu/token_backend.hpp"

namespace baseline {

// The pre-change ks::sim::Simulation, kept verbatim as the measurement
// baseline. Do not modernize: the point is to preserve what the engine
// looked like before the rework.
using ks::Duration;
using ks::Time;

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time Now() const { return now_; }

  EventId ScheduleAt(Time t, std::function<void()> fn) {
    if (t < now_) t = now_;
    const EventId id = next_id_++;
    queue_.push(Event{t, id, std::move(fn)});
    return id;
  }

  EventId ScheduleAfter(Duration delay, std::function<void()> fn) {
    if (delay.count() < 0) delay = Duration{0};
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  bool Cancel(EventId id) {
    if (id == kInvalidEvent || id >= next_id_) return false;
    return cancelled_.insert(id).second;
  }

  bool Step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.at;
      ++executed_;
      ev.fn();
      return true;
    }
    return false;
  }

  void Run(std::uint64_t max_events = UINT64_MAX) {
    while (max_events-- > 0 && Step()) {
    }
  }

  void RunUntil(Time t) {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (cancelled_.count(top.id) > 0) {
        cancelled_.erase(top.id);
        queue_.pop();
        continue;
      }
      if (top.at > t) break;
      Step();
    }
    if (now_ < t) now_ = t;
  }

  std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    Time at;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  Time now_{0};
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

}  // namespace baseline

namespace {

using ks::Duration;
using ks::Seconds;
using ks::Time;

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

// Each pattern is a template over the engine type so both engines run
// byte-for-byte the same workload code.

template <typename Sim>
double ChurnPattern(std::size_t timers, std::uint64_t total) {
  Sim sim;
  struct Timer {
    Sim* sim;
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

template <typename Sim>
double BulkPattern(std::uint64_t n) {
  Sim sim;
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

template <typename Sim>
double TimeoutPattern(std::uint64_t n) {
  Sim sim;
  struct Fire {
    Payload p;
    void operator()() { g_sink = g_sink + p.id; }
  };
  std::vector<std::uint64_t> ids(1000);
  const double t0 = NowSec();
  std::uint64_t done = 0;
  while (done < n) {
    for (int i = 0; i < 1000; ++i) {
      ids[static_cast<std::size_t>(i)] = sim.ScheduleAfter(
          Seconds(10 + i % 13),
          Fire{Payload{nullptr, done + static_cast<std::uint64_t>(i),
                       "req-" + std::to_string(i % 31)}});
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 10 != 0) sim.Cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.RunUntil(sim.Now() + Seconds(30));
    done += 1000;
  }
  return static_cast<double>(n) / (NowSec() - t0);
}

template <typename Sim>
double WatchdogPattern(std::size_t nodes, std::uint64_t total) {
  Sim sim;
  std::vector<std::uint64_t> detect(nodes, 0);
  struct Heartbeat {
    Sim* sim;
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
  double baseline_eps = 0.0;
  double current_eps = 0.0;
  double ratio() const { return current_eps / baseline_eps; }
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
  bench::Banner("bench_engine: event-loop throughput, current vs baseline",
                "perf microbenchmark (no paper figure)");

  std::printf(
      "\nBaseline = pre-rework engine (std::function + lazy-deletion "
      "priority_queue),\nembedded in this binary. Same workload templates "
      "for both engines.\n\n");

  const std::uint64_t kEvents = 3000000;
  std::vector<PatternResult> results;

  {
    PatternResult r{"churn-1k"};
    r.baseline_eps = ChurnPattern<baseline::Simulation>(1000, kEvents);
    r.current_eps = ChurnPattern<sim::Simulation>(1000, kEvents);
    results.push_back(r);
  }
  {
    PatternResult r{"churn-100k"};
    r.baseline_eps = ChurnPattern<baseline::Simulation>(100000, kEvents);
    r.current_eps = ChurnPattern<sim::Simulation>(100000, kEvents);
    results.push_back(r);
  }
  {
    PatternResult r{"bulk-3M"};
    r.baseline_eps = BulkPattern<baseline::Simulation>(kEvents);
    r.current_eps = BulkPattern<sim::Simulation>(kEvents);
    results.push_back(r);
  }
  {
    PatternResult r{"timeout-90pct"};
    r.baseline_eps = TimeoutPattern<baseline::Simulation>(kEvents);
    r.current_eps = TimeoutPattern<sim::Simulation>(kEvents);
    results.push_back(r);
  }
  {
    PatternResult r{"watchdog-100k"};
    r.baseline_eps = WatchdogPattern<baseline::Simulation>(100000, kEvents);
    r.current_eps = WatchdogPattern<sim::Simulation>(100000, kEvents);
    results.push_back(r);
  }

  Table table({"pattern", "baseline Mev/s", "current Mev/s", "speedup"});
  double log_sum = 0.0;
  for (const PatternResult& r : results) {
    log_sum += std::log(r.ratio());
    table.AddRow({r.name, Cell(r.baseline_eps / 1e6, 2),
                  Cell(r.current_eps / 1e6, 2), Cell(r.ratio(), 2)});
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(results.size()));
  table.AddRow({std::string("geomean"), std::string("-"), std::string("-"),
                Cell(geomean, 2)});
  table.Print(std::cout);

  std::printf(
      "\nCancel-heavy patterns (timeout, watchdog) gain the most: the "
      "baseline\nengine keeps a tombstone per cancel and pays an allocation "
      "per schedule,\nwhile the current engine cancels in place and keeps "
      "captures inline.\n");

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
    row.Set("engine", "baseline");
    row.Set("events_per_sec", r.baseline_eps);
    bench::AddRow(report, std::move(row));
    JsonValue row2 = JsonValue::Object();
    row2.Set("pattern", r.name);
    row2.Set("engine", "current");
    row2.Set("events_per_sec", r.current_eps);
    row2.Set("speedup_vs_baseline", r.ratio());
    bench::AddRow(report, std::move(row2));
  }
  JsonValue summary = JsonValue::Object();
  summary.Set("pattern", "geomean");
  summary.Set("engine", "summary");
  summary.Set("speedup_vs_baseline", geomean);
  bench::AddRow(report, std::move(summary));
  JsonValue token_row = JsonValue::Object();
  token_row.Set("pattern", "token-cluster");
  token_row.Set("engine", "current");
  token_row.Set("total_events", token.total_events);
  token_row.Set("grants", token.grants);
  token_row.Set("events_per_sec", token.events_per_sec);
  bench::AddRow(report, std::move(token_row));
  JsonValue kernel_row = JsonValue::Object();
  kernel_row.Set("pattern", "kernel-cluster");
  kernel_row.Set("engine", "current");
  kernel_row.Set("total_events", kernel.total_events);
  kernel_row.Set("completed", kernel.completed);
  bench::AddRow(report, std::move(kernel_row));
  const std::string path = bench::WriteReport(report);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
