// Memory oversubscription: pack four training tenants whose aggregate
// working set is 2.5x physical device memory onto ONE GPU.
//
// With ClusterConfig::oversub enabled, each tenant's cuMemAlloc beyond
// physical capacity is backed by host memory (GPUswap-style paging at
// 2 MiB granularity); a tenant's pages migrate onto the device over the
// shared host<->device link whenever its token is granted. Plain quota
// rotation would move the whole working set every 100 ms — swap
// thrashing. BackendConfig::tq is the nvshare-style counter-measure: a
// thrash detector watches swap bytes per interval and, once tripped,
// rotates an exclusive 30 s time quantum among the memory-pressured
// tenants so each burst pays for one migration instead of hundreds.
//
//   $ ./examples/oversubscription

#include <cstdio>

#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/swap.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

using namespace ks;

namespace {
constexpr int kTenants = 4;
constexpr double kFactor = 2.5;  // aggregate allocation / physical memory
}  // namespace

int main() {
  // 1. One node, one GPU, oversubscription on: allocations may total
  //    2.5x device memory, migrating over a 24 GB/s link. The TQ
  //    anti-thrashing rotation arms alongside it.
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  config.oversub.enabled = true;
  config.oversub.swap.oversubscription_factor = kFactor;
  config.oversub.swap.link_bandwidth_bytes_per_s = 24e9;
  config.backend.tq.enabled = true;
  k8s::Cluster cluster(config);

  // 2. The same switch makes the scheduler admit the over-committed
  //    placement: gpu_mem requests may total `kFactor` per device.
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);

  if (!cluster.Start().ok() || !kubeshare.Start().ok()) {
    std::fprintf(stderr, "failed to start cluster\n");
    return 1;
  }

  // 3. Four bursty (phased) training tenants, each sized so the four
  //    working sets together are 2.25x the device: every token hand-off
  //    that crosses tenants must swap.
  const auto capacity =
      static_cast<double>(cluster.config().gpu_spec.memory_bytes);
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "train-" + std::to_string(i);
    workload::PhasedTrainingSpec spec;
    spec.epochs = 3;
    spec.steps_per_epoch = 100;
    spec.step_kernel = Millis(10);
    spec.io_per_epoch = Millis(500);
    spec.model_bytes =
        static_cast<std::uint64_t>(kFactor * 0.9 / kTenants * capacity);
    host.ExpectJob(name, [spec] {
      return std::make_unique<workload::PhasedTrainingJob>(spec);
    });
    kubeshare::SharePod sp;
    sp.meta.name = name;
    sp.spec.gpu.gpu_request = 1.0 / kTenants;
    sp.spec.gpu.gpu_limit = 1.0;
    sp.spec.gpu.gpu_mem = kFactor * 0.95 / kTenants;
    const Status s = kubeshare.CreateSharePod(sp);
    std::printf("submitted %-8s (%.1f GiB model): %s\n", name.c_str(),
                static_cast<double>(spec.model_bytes) / (1ull << 30),
                s.ToString().c_str());
  }

  // 4. Watch the swap traffic and the thrash detector.
  const auto swap_for = [&host](const GpuUuid& uuid) {
    return host.SwapFor(uuid);
  };
  while (host.completed() + host.failed() <
             static_cast<std::size_t>(kTenants) &&
         cluster.sim().Now() < Seconds(300)) {
    cluster.sim().RunUntil(cluster.sim().Now() + Seconds(10));
    const metrics::SwapMetrics m =
        metrics::CollectSwapMetrics(cluster, swap_for);
    std::printf(
        "t=%5.1fs  resident %4.1f / swapped %4.1f GiB  migrations %4llu "
        "(%6.1f GiB moved)  tq %s\n",
        ToSeconds(cluster.sim().Now()),
        static_cast<double>(m.resident_bytes) / (1ull << 30),
        static_cast<double>(m.swapped_bytes) / (1ull << 30),
        static_cast<unsigned long long>(m.migrations_total),
        static_cast<double>(m.bytes_migrated_total) / (1ull << 30),
        m.devices.empty() || !m.devices.front().tq_engaged ? "off"
                                                           : "ENGAGED");
  }

  // 5. Completion report: with TQ the 2.5x-packed mix finishes in well
  //    under the horizon; rerun with config.backend.tq.enabled = false to
  //    watch the same mix thrash (bench_study_oversub sweeps both).
  const metrics::SwapMetrics m = metrics::CollectSwapMetrics(cluster, swap_for);
  std::printf("\ncompleted %zu / %d tenants, %llu migrations, tq engaged "
              "%llu time(s)\n",
              host.completed(), kTenants,
              static_cast<unsigned long long>(m.migrations_total),
              static_cast<unsigned long long>(m.tq_engagements_total));
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "train-" + std::to_string(i);
    const auto* rec = host.RecordOf(name);
    if (rec != nullptr && rec->has_finished) {
      std::printf("  %-8s finished at t=%.2fs\n", name.c_str(),
                  ToSeconds(rec->finished));
    }
  }
  return host.completed() == kTenants && m.tq_engagements_total > 0 ? 0 : 1;
}
