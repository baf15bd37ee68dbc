// Memory-oversubscription study (ROADMAP item 2; paper §4.5 related work):
// completion time of a bursty training mix as the aggregate working set
// grows past physical device memory, with and without the nvshare-style
// exclusive-time-quantum (TQ) anti-thrashing rotation.
//
// Four phased (bursty) training tenants share one GPU through the full
// KubeShare stack. Each tenant's model is sized to factor x capacity x
// 0.9 / 4, so the sweep's oversubscription factor directly scales the
// aggregate working set: at 1.0x everything fits and no page ever moves;
// above it every token hand-off migrates the in-bound tenant's pages over
// the shared host<->device link. Two modes per factor:
//   share  plain temporal sharing — the 100 ms token quota keeps rotating
//          a working set larger than the device through the link
//          (swap-thrashing: most of the wall clock is migration);
//   tq     BackendConfig::tq on — the thrash detector sees the swap
//          traffic and switches the device to an exclusive 30 s quantum
//          per memory-pressured holder, so each tenant's burst pays one
//          migration instead of one per quota.
//
// The acceptance gate (scripts/check_bench_json.py, BENCH_oversub.json):
// tq completion at 2.5x stays within 2x of the 1.0x baseline, while
// share at 2.5x visibly collapses (>= 2x the tq time or incomplete).

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness.hpp"
#include "json_report.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/swap.hpp"
#include "workload/host.hpp"

namespace {

using namespace ks;

constexpr int kTenants = 4;
const Time kHorizon = Seconds(300);

struct ModeResult {
  double completion_s = 0.0;  // makespan; horizon when jobs never finish
  std::size_t completed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t bytes_migrated = 0;
  double link_busy_fraction = 0.0;
  std::uint64_t tq_engagements = 0;
  std::uint64_t total_events = 0;
};

ModeResult Run(double factor, bool tq) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  ccfg.oversub.enabled = true;
  ccfg.oversub.swap.oversubscription_factor = factor;
  // NVLink-class link; migrations stay painful but one per burst is
  // affordable while one per 100 ms quota is not.
  ccfg.oversub.swap.link_bandwidth_bytes_per_s = 24e9;
  ccfg.backend.tq.enabled = tq;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  (void)cluster.Start();
  (void)kubeshare.Start();

  const auto capacity =
      static_cast<double>(cluster.config().gpu_spec.memory_bytes);
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "burst-" + std::to_string(i);
    workload::PhasedTrainingSpec spec;
    spec.epochs = 3;
    spec.steps_per_epoch = 100;
    spec.step_kernel = Millis(10);
    spec.io_per_epoch = Millis(500);
    spec.model_bytes =
        static_cast<std::uint64_t>(factor * 0.9 / kTenants * capacity);
    host.ExpectJob(name, [spec] {
      return std::make_unique<workload::PhasedTrainingJob>(spec);
    });
    kubeshare::SharePod sp;
    sp.meta.name = name;
    sp.spec.gpu.gpu_request = 1.0 / kTenants;
    sp.spec.gpu.gpu_limit = 1.0;
    sp.spec.gpu.gpu_mem = factor * 0.95 / kTenants;
    (void)kubeshare.CreateSharePod(sp);
  }

  const Duration slice = Seconds(5);
  while (host.completed() + host.failed() <
             static_cast<std::size_t>(kTenants) &&
         cluster.sim().Now() < kHorizon) {
    cluster.sim().RunUntil(cluster.sim().Now() + slice);
  }

  ModeResult r;
  r.completed = host.completed();
  r.completion_s =
      r.completed == static_cast<std::size_t>(kTenants)
          ? ToSeconds(host.completion_times().back())
          : ToSeconds(kHorizon);
  const metrics::SwapMetrics swap = metrics::CollectSwapMetrics(
      cluster, [&host](const GpuUuid& uuid) { return host.SwapFor(uuid); });
  r.migrations = swap.migrations_total;
  r.bytes_migrated = swap.bytes_migrated_total;
  if (!swap.devices.empty()) {
    r.link_busy_fraction = swap.devices.front().link_busy_fraction;
  }
  r.tq_engagements = swap.tq_engagements_total;
  r.total_events = cluster.sim().lifetime_events();
  return r;
}

}  // namespace

int main() {
  bench::Banner(
      "bench_study_oversub: completion time vs memory oversubscription",
      "GPUswap-style paging + nvshare-TQ anti-thrashing (ROADMAP item 2)");

  std::cout << "\n1 node x 1 GPU, " << kTenants
            << " bursty training tenants; aggregate working set =\nfactor x "
               "0.9 x device memory. \"share\" rotates the 100 ms token "
               "quota;\n\"tq\" engages the exclusive time quantum once swap "
               "traffic crosses the\nthrash threshold.\n\n";

  Table table({"factor", "mode", "completion (s)", "done", "migrations",
               "GiB moved", "link busy", "tq engages"});
  JsonValue report = bench::MakeReport("oversub");
  for (const double factor : {1.0, 1.5, 2.0, 2.5, 3.0}) {
    for (const bool tq : {false, true}) {
      const ModeResult r = Run(factor, tq);
      const char* mode = tq ? "tq" : "share";
      table.AddRow({Cell(factor, 1), mode, Cell(r.completion_s, 1),
                    Cell(static_cast<std::int64_t>(r.completed)),
                    Cell(static_cast<std::int64_t>(r.migrations)),
                    Cell(static_cast<double>(r.bytes_migrated) / (1ull << 30),
                         1),
                    Cell(r.link_busy_fraction, 3),
                    Cell(static_cast<std::int64_t>(r.tq_engagements))});
      JsonValue row = JsonValue::Object();
      row.Set("factor", factor);
      row.Set("mode", std::string(mode));
      row.Set("jobs", static_cast<std::int64_t>(kTenants));
      row.Set("completed", static_cast<std::int64_t>(r.completed));
      row.Set("completion_time_s", r.completion_s);
      row.Set("migrations", static_cast<std::int64_t>(r.migrations));
      row.Set("bytes_migrated", static_cast<std::int64_t>(r.bytes_migrated));
      row.Set("link_busy_fraction", r.link_busy_fraction);
      row.Set("tq_engagements",
              static_cast<std::int64_t>(r.tq_engagements));
      row.Set("total_events", static_cast<std::int64_t>(r.total_events));
      bench::AddRow(report, std::move(row));
    }
  }
  table.Print(std::cout);

  std::cout << "\nExpected shape: at 1.0x nothing swaps and the modes are "
               "identical. Above\nit, \"share\" pays a full working-set "
               "migration per 100 ms quota and\ncollapses; \"tq\" pays one "
               "per burst and stays within 2x of the 1.0x\nbaseline "
               "(the gate check_bench_json.py enforces).\n";
  std::cout << "\nwrote " << bench::WriteReport(report) << "\n";
  return 0;
}
