// Oversubscription under randomized sequences and chaos (ROADMAP item 2).
//
//  - SwapManager property test: randomized allocate/free/run sequences,
//    re-drawn per KS_CHAOS_SEED in CI's fixed seed matrix, must preserve
//    the residency invariants (resident <= capacity, per-owner byte
//    conservation, the oversubscription bound) and charge exactly
//    queue-wait + bytes/rate for every swap-in.
//  - Thrash regression: a 2.5x-oversubscribed bursty mix stays bounded
//    with the nvshare-TQ rotation on and collapses with it off.
//  - Crash-restart: a token-daemon restart mid-thrash must not fork the
//    timeline — two identical runs rebuild byte-equal residency and TQ
//    state and still complete.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "common/rng.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/swap.hpp"
#include "vgpu/swap.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks {
namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

/// CI runs the recovery label once per seed in its fixed matrix via
/// KS_CHAOS_SEED; locally, unset, it exercises the first of them.
std::uint64_t ChaosSeed() {
  if (const char* env = std::getenv("KS_CHAOS_SEED")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 11;
}

TEST(OversubProperty, RandomizedSequencesPreserveSwapInvariants) {
  const std::uint64_t seed = ChaosSeed();
  SCOPED_TRACE("KS_CHAOS_SEED=" + std::to_string(seed));

  vgpu::SwapConfig cfg;
  cfg.page_bytes = 2ull << 20;
  cfg.link_bandwidth_bytes_per_s = 10e9;
  cfg.oversubscription_factor = 2.0;
  const std::uint64_t capacity = 16 * kGiB;
  vgpu::SwapManager swap(capacity, cfg);

  constexpr int kOwners = 5;
  std::vector<ContainerId> owners;
  for (int i = 0; i < kOwners; ++i) {
    owners.emplace_back("c" + std::to_string(i));
  }

  Rng rng(seed);
  Time now{0};
  Time link_free{0};  // mirror of the manager's serial-link model
  for (int step = 0; step < 400; ++step) {
    now += Duration{static_cast<std::int64_t>(rng.UniformInt(1, 500000))};
    const ContainerId& owner =
        owners[static_cast<std::size_t>(rng.UniformInt(0, kOwners - 1))];
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 40) {
      // Allocate a whole-page size, keeping each owner within physical
      // capacity (a single working set larger than the device is the
      // frontend quota's job to reject).
      const std::uint64_t pages = rng.UniformInt(1, 1024);
      const std::uint64_t bytes = pages * cfg.page_bytes;
      if (swap.AllocatedBy(owner) + bytes <= capacity) {
        const Status s = swap.Allocate(owner, bytes);
        if (!s.ok()) {
          // Only the aggregate oversubscription bound may refuse.
          EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
          EXPECT_GT(swap.total_allocated() + bytes,
                    static_cast<std::uint64_t>(
                        static_cast<double>(capacity) *
                        cfg.oversubscription_factor));
        }
      }
    } else if (op < 55) {
      const std::uint64_t have = swap.AllocatedBy(owner) / cfg.page_bytes;
      if (have > 0) {
        const std::uint64_t pages = rng.UniformInt(1, have);
        EXPECT_TRUE(swap.Free(owner, pages * cfg.page_bytes).ok());
      }
    } else if (op < 60) {
      swap.FreeAll(owner);
      EXPECT_EQ(swap.AllocatedBy(owner), 0u);
    } else {
      const std::uint64_t before_swapped = swap.SwappedOf(owner);
      const Duration charged = swap.MakeResident(owner, now);
      const std::uint64_t moved = swap.last_migration_bytes();
      // The run-time contract: the whole working set is resident...
      EXPECT_EQ(swap.ResidentOf(owner), swap.AllocatedBy(owner));
      // ...at least the previously-swapped bytes crossed the link...
      EXPECT_GE(moved, before_swapped);
      // ...and the charge is exactly queue wait + bytes / link rate.
      if (moved > 0) {
        const Duration transfer{static_cast<std::int64_t>(
            static_cast<double>(moved) / cfg.link_bandwidth_bytes_per_s *
            1e6)};
        const Time start = std::max(now, link_free);
        link_free = start + transfer;
        EXPECT_EQ(charged, link_free - now)
            << "charged time must be queue wait + transfer at step " << step;
      } else {
        EXPECT_EQ(charged, Duration{0});
      }
    }

    // Global invariants, after every operation.
    EXPECT_LE(swap.total_resident(), capacity);
    EXPECT_LE(swap.total_allocated(),
              static_cast<std::uint64_t>(static_cast<double>(capacity) *
                                         cfg.oversubscription_factor));
    std::uint64_t sum_alloc = 0, sum_res = 0;
    for (const ContainerId& c : owners) {
      EXPECT_LE(swap.ResidentOf(c), swap.AllocatedBy(c));
      EXPECT_EQ(swap.ResidentOf(c) + swap.SwappedOf(c), swap.AllocatedBy(c))
          << "per-owner byte conservation for " << c.value();
      sum_alloc += swap.AllocatedBy(c);
      sum_res += swap.ResidentOf(c);
    }
    ASSERT_EQ(sum_alloc, swap.total_allocated());
    ASSERT_EQ(sum_res, swap.total_resident());
    ASSERT_EQ(swap.total_swapped(), sum_alloc - sum_res);
  }
  EXPECT_GT(swap.swap_ins(), 0u) << "sequence never exercised the link";
}

// ---- full-cluster thrash + crash fixtures -------------------------------

struct OversubRun {
  double completion_s = 0.0;
  std::size_t completed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t tq_engagements = 0;
  std::string swap_dump;  // per-device SwapManager::DebugString()
};

struct OversubRunOptions {
  double factor = 2.5;
  bool tq = true;
  bool daemon_restart = false;
  int tenants = 4;
  Time horizon = Seconds(240);
};

OversubRun RunOversubCluster(const OversubRunOptions& opt) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.gpus_per_node = 1;
  ccfg.oversub.enabled = true;
  ccfg.oversub.swap.oversubscription_factor = opt.factor;
  ccfg.oversub.swap.link_bandwidth_bytes_per_s = 24e9;
  ccfg.backend.tq.enabled = opt.tq;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());

  const auto capacity =
      static_cast<double>(cluster.config().gpu_spec.memory_bytes);
  for (int i = 0; i < opt.tenants; ++i) {
    const std::string name = "burst-" + std::to_string(i);
    workload::PhasedTrainingSpec spec;
    spec.epochs = 2;
    spec.steps_per_epoch = 50;
    spec.step_kernel = Millis(10);
    spec.io_per_epoch = Millis(300);
    spec.model_bytes = static_cast<std::uint64_t>(
        opt.factor * 0.9 / opt.tenants * capacity);
    host.ExpectJob(name, [spec] {
      return std::make_unique<workload::PhasedTrainingJob>(spec);
    });
    kubeshare::SharePod sp;
    sp.meta.name = name;
    sp.spec.gpu.gpu_request = 1.0 / opt.tenants;
    sp.spec.gpu.gpu_limit = 1.0;
    sp.spec.gpu.gpu_mem = opt.factor * 0.95 / opt.tenants;
    EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
  }

  chaos::FaultPlan plan;
  if (opt.daemon_restart) {
    chaos::Fault daemon;
    daemon.at = Seconds(12);  // mid-thrash: pods are up and swapping
    daemon.kind = chaos::FaultKind::kTokenDaemonRestart;
    daemon.node = "node-0";
    daemon.duration = Seconds(2);
    plan.faults.push_back(daemon);
  }
  chaos::FaultInjector injector(&cluster, plan);
  injector.SetKubeShare(&kubeshare);
  if (opt.daemon_restart) {
    EXPECT_TRUE(injector.Arm().ok());
  }

  const Duration slice = Seconds(5);
  while (host.completed() + host.failed() <
             static_cast<std::size_t>(opt.tenants) &&
         cluster.sim().Now() < opt.horizon) {
    cluster.sim().RunUntil(cluster.sim().Now() + slice);
  }

  OversubRun r;
  r.completed = host.completed();
  r.completion_s =
      r.completed == static_cast<std::size_t>(opt.tenants)
          ? ToSeconds(host.completion_times().back())
          : ToSeconds(opt.horizon);
  const metrics::SwapMetrics swap = metrics::CollectSwapMetrics(
      cluster, [&host](const GpuUuid& uuid) { return host.SwapFor(uuid); });
  r.migrations = swap.migrations_total;
  r.tq_engagements = swap.tq_engagements_total;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    for (auto& dev : cluster.node(n).gpus) {
      if (const vgpu::SwapManager* s = host.SwapFor(dev->uuid())) {
        r.swap_dump += dev->uuid().value() + "\n" + s->DebugString();
      }
    }
  }
  return r;
}

/// The bench gate's shape, pinned as a regression: at 2.5x the TQ
/// rotation keeps the bursty mix bounded while plain quota rotation
/// migrates the working set every 100 ms and collapses.
TEST(OversubThrashing, TqBoundsWhatQuotaRotationCollapses) {
  OversubRunOptions tq_on;
  const OversubRun with_tq = RunOversubCluster(tq_on);
  EXPECT_EQ(with_tq.completed, 4u) << "TQ run must finish within horizon";
  EXPECT_GT(with_tq.tq_engagements, 0u)
      << "2.5x bursty mix must trip the thrash detector";

  OversubRunOptions tq_off = tq_on;
  tq_off.tq = false;
  const OversubRun without = RunOversubCluster(tq_off);
  EXPECT_EQ(without.tq_engagements, 0u);
  const bool collapsed =
      without.completed < 4u ||
      without.completion_s >= 2.0 * with_tq.completion_s;
  EXPECT_TRUE(collapsed)
      << "quota rotation at 2.5x should thrash: tq=" << with_tq.completion_s
      << "s share=" << without.completion_s << "s (" << without.completed
      << "/4 done)";
  EXPECT_GT(without.migrations, with_tq.migrations);
}

/// A token-daemon restart mid-thrash must neither wedge the rotation nor
/// fork the timeline: the rebuilt residency + TQ state is byte-equal
/// across identical runs, and the mix still completes.
TEST(OversubCrashRestart, DaemonRestartRebuildsResidencyByteEqual) {
  OversubRunOptions opt;
  opt.daemon_restart = true;
  const OversubRun a = RunOversubCluster(opt);
  const OversubRun b = RunOversubCluster(opt);
  EXPECT_EQ(a.completed, 4u) << "restart must not wedge the TQ rotation";
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.completion_s, b.completion_s);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.tq_engagements, b.tq_engagements);
  EXPECT_EQ(a.swap_dump, b.swap_dump) << "residency state diverged";
  EXPECT_GT(a.tq_engagements, 0u)
      << "engagement count must survive the daemon restart";
}

}  // namespace
}  // namespace ks
