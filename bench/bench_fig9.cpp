// Figure 9: "The average GPU utilization and the number of active GPUs
// over time" (workload: mean demand 30%, Poisson arrivals).
//
// One run per system. For KubeShare the held-GPU count is the vGPU pool
// size; for native Kubernetes every job pins a whole GPU (the paper notes
// "the number of active GPUs from Kubernetes is always 32" while the
// workload is in flight).

#include <iostream>

#include "common/table.hpp"
#include "harness.hpp"
#include "json_report.hpp"
#include "k8s/resources.hpp"
#include "metrics/sampler.hpp"

namespace {

struct TimelineResult {
  ks::Table table{{"time (s)", "avg util (active GPUs)", "GPUs held"}};
  double makespan_s = 0.0;
  std::size_t completed = 0;
  std::uint64_t total_events = 0;
};

TimelineResult RunTimeline(bool use_kubeshare) {
  using namespace ks;
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 8;
  ccfg.gpus_per_node = 4;
  k8s::Cluster cluster(ccfg);
  std::unique_ptr<kubeshare::KubeShare> kubeshare;
  if (use_kubeshare) {
    kubeshare = std::make_unique<kubeshare::KubeShare>(&cluster);
  }
  workload::WorkloadHost host(&cluster);
  workload::WorkloadConfig wcfg;
  wcfg.total_jobs = 300;
  wcfg.mean_interarrival = Seconds(0.6);
  wcfg.demand_mean = 0.3;
  wcfg.demand_stddev = 0.14;  // the paper's "variance 2" demand spread
  wcfg.gpu_mem = 0.2;
  wcfg.seed = 77;
  workload::WorkloadDriver driver(
      &cluster, &host,
      use_kubeshare ? workload::WorkloadDriver::Mode::kKubeShare
                    : workload::WorkloadDriver::Mode::kNative,
      kubeshare.get(), wcfg);

  (void)cluster.Start();
  if (kubeshare != nullptr) (void)kubeshare->Start();
  cluster.nvml().Start();
  driver.Start();

  TimelineResult out;
  // Track "ever active" incrementally for the active-GPU utilization
  // average, sampling every 30 s of simulated time.
  std::vector<bool> ever_active(32, false);
  std::vector<const gpu::GpuDevice*> devices;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    for (const auto& dev : cluster.node(n).gpus) devices.push_back(dev.get());
  }
  std::vector<Duration> last_busy(devices.size(), Duration{0});
  Time last_t = kTimeZero;

  for (int t = 30; t <= 1800; t += 30) {
    cluster.sim().RunUntil(Seconds(t));
    double util_total = 0.0;
    int active = 0;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      auto* dev = const_cast<gpu::GpuDevice*>(devices[d]);
      dev->utilization().Flush(cluster.sim().Now());
      const Duration busy = dev->utilization().TotalBusy();
      const Duration delta = busy - last_busy[d];
      last_busy[d] = busy;
      if (delta.count() > 0) ever_active[d] = true;
      if (ever_active[d]) {
        util_total += ToSeconds(delta) / ToSeconds(cluster.sim().Now() - last_t);
        ++active;
      }
    }
    last_t = cluster.sim().Now();
    double held = 0;
    if (kubeshare != nullptr) {
      held = static_cast<double>(kubeshare->pool().size());
    } else {
      for (const k8s::Pod& p : cluster.api().pods().List()) {
        if (p.terminal() || !p.scheduled()) continue;
        held += static_cast<double>(
            p.spec.requests.Get(k8s::kResourceNvidiaGpu));
      }
    }
    out.table.AddRow({Cell(static_cast<std::int64_t>(t)),
                      Cell(active > 0 ? util_total / active : 0.0, 3),
                      Cell(held, 0)});
    if (driver.AllDone()) break;
  }
  out.makespan_s = ToSeconds(driver.Makespan());
  out.completed = host.completed();
  out.total_events = cluster.sim().lifetime_events();
  return out;
}

}  // namespace

int main() {
  using namespace ks;
  bench::Banner("bench_fig9: GPU utilization and active GPUs over time",
                "Figure 9");

  std::cout << "\n--- native Kubernetes ---\n\n";
  TimelineResult k8s = RunTimeline(false);
  k8s.table.Print(std::cout);
  std::cout << "completed " << k8s.completed << " jobs, makespan "
            << Cell(k8s.makespan_s, 1) << " s\n";

  std::cout << "\n--- KubeShare ---\n\n";
  TimelineResult kshare = RunTimeline(true);
  kshare.table.Print(std::cout);
  std::cout << "completed " << kshare.completed << " jobs, makespan "
            << Cell(kshare.makespan_s, 1) << " s\n";

  std::cout << "\nExpected shape (paper): KubeShare drives active GPUs to "
               "much higher\nutilization, holds fewer than 32 GPUs for most "
               "of the run, and finishes\nthe same workload sooner; native "
               "Kubernetes holds all 32 GPUs at low\nutilization for "
               "longer.\n";

  JsonValue report = bench::MakeReport("fig9");
  struct NamedResult {
    const char* system;
    const TimelineResult* r;
  };
  const NamedResult named[] = {{"native", &k8s}, {"kubeshare", &kshare}};
  for (const NamedResult& n : named) {
    JsonValue row = JsonValue::Object();
    row.Set("system", n.system);
    row.Set("workload", "inference");
    row.Set("completed", n.r->completed);
    row.Set("makespan_s", n.r->makespan_s);
    row.Set("total_events", n.r->total_events);
    bench::AddRow(report, std::move(row));
  }
  std::cout << "wrote " << bench::WriteReport(report) << "\n";
  return 0;
}
