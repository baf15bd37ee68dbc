#include "kubeshare/algorithm.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace ks::kubeshare {
namespace {

ScheduleRequest Req(const std::string& name, double util, double mem = 0.1) {
  ScheduleRequest r;
  r.sharepod = name;
  r.gpu.gpu_request = util;
  r.gpu.gpu_limit = 1.0;
  r.gpu.gpu_mem = mem;
  return r;
}

std::vector<NodeFreeGpus> Supply(int per_node, int nodes = 2) {
  std::vector<NodeFreeGpus> out;
  for (int i = 0; i < nodes; ++i) {
    out.push_back({"node-" + std::to_string(i), per_node});
  }
  return out;
}

TEST(Algorithm1, FirstRequestCreatesNewDevice) {
  VgpuPool pool;
  auto id = ScheduleSharePod(pool, Req("a", 0.3), Supply(4));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.DeviceOf("a"), *id);
}

TEST(Algorithm1, SecondRequestPacksViaBestFit) {
  VgpuPool pool;
  auto first = ScheduleSharePod(pool, Req("a", 0.3), Supply(4));
  auto second = ScheduleSharePod(pool, Req("b", 0.3), Supply(4));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // shared, not a fresh device
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Algorithm1, BestFitPicksTightestHole) {
  VgpuPool pool;
  // Device 1 at 0.7 used, device 2 at 0.4 used.
  auto d1 = ScheduleSharePod(pool, Req("a", 0.7), Supply(4));
  auto d2 = ScheduleSharePod(pool, Req("b", 0.4), Supply(4));
  ASSERT_NE(*d1, *d2);  // 0.4 does not fit into d1's 0.3 residual
  // A 0.25 request fits both; best fit = tightest residual = d1 (0.3 left).
  auto d3 = ScheduleSharePod(pool, Req("c", 0.25), Supply(4));
  ASSERT_TRUE(d3.ok());
  EXPECT_EQ(*d3, *d1);
}

TEST(Algorithm1, NewDeviceWhenNothingFits) {
  VgpuPool pool;
  ASSERT_TRUE(ScheduleSharePod(pool, Req("a", 0.8), Supply(4)).ok());
  auto second = ScheduleSharePod(pool, Req("b", 0.5), Supply(4));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(Algorithm1, UnavailableWhenNoPhysicalGpuLeft) {
  VgpuPool pool;
  ASSERT_TRUE(ScheduleSharePod(pool, Req("a", 0.8), Supply(1, 1)).ok());
  auto second = ScheduleSharePod(pool, Req("b", 0.5), Supply(0, 1));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
}

TEST(Algorithm1, MemoryDimensionAlsoPacks) {
  VgpuPool pool;
  ASSERT_TRUE(ScheduleSharePod(pool, Req("a", 0.1, 0.9), Supply(4)).ok());
  // Compute fits but memory does not -> new device.
  auto second = ScheduleSharePod(pool, Req("b", 0.1, 0.5), Supply(4));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(Algorithm1, NodeConstraintRestrictsNewDevice) {
  VgpuPool pool;
  ScheduleRequest r = Req("a", 0.5);
  r.node_constraint = "node-1";
  auto id = ScheduleSharePod(pool, r, Supply(4));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(pool.Get(*id)->node, "node-1");
}

TEST(Algorithm1, NodeConstraintExcludesForeignDevices) {
  VgpuPool pool;
  ASSERT_TRUE(ScheduleSharePod(pool, Req("a", 0.2), Supply(4, 1)).ok());
  ASSERT_EQ(pool.List()[0]->node, "node-0");
  ScheduleRequest r = Req("b", 0.2);
  r.node_constraint = "node-7";
  auto res = ScheduleSharePod(pool, r, Supply(4, 1));  // only node-0 exists
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnavailable);
}

// ---- Affinity: Step 1 --------------------------------------------------

TEST(Algorithm1, AffinityGroupsOnSameDevice) {
  VgpuPool pool;
  ScheduleRequest a = Req("a", 0.3);
  a.locality.affinity = Label("grp");
  ScheduleRequest b = Req("b", 0.3);
  b.locality.affinity = Label("grp");
  auto d1 = ScheduleSharePod(pool, a, Supply(4));
  auto d2 = ScheduleSharePod(pool, b, Supply(4));
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d1, *d2);
}

TEST(Algorithm1, AffinityOverflowIsHardRejected) {
  VgpuPool pool;
  ScheduleRequest a = Req("a", 0.7);
  a.locality.affinity = Label("grp");
  ScheduleRequest b = Req("b", 0.7);
  b.locality.affinity = Label("grp");
  ASSERT_TRUE(ScheduleSharePod(pool, a, Supply(4)).ok());
  auto res = ScheduleSharePod(pool, b, Supply(4));
  ASSERT_FALSE(res.ok());
  // Line 6 of Algorithm 1: reject, do NOT fall through to a new device.
  EXPECT_EQ(res.status().code(), StatusCode::kRejected);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Algorithm1, AffinityWithExclusionConflictRejected) {
  VgpuPool pool;
  ScheduleRequest a = Req("a", 0.2);
  a.locality.affinity = Label("grp");
  a.locality.exclusion = Label("tenant-a");
  ASSERT_TRUE(ScheduleSharePod(pool, a, Supply(4)).ok());
  ScheduleRequest b = Req("b", 0.2);
  b.locality.affinity = Label("grp");
  b.locality.exclusion = Label("tenant-b");
  auto res = ScheduleSharePod(pool, b, Supply(4));
  EXPECT_EQ(res.status().code(), StatusCode::kRejected);
}

TEST(Algorithm1, AffinityWithAntiAffinityConflictRejected) {
  VgpuPool pool;
  ScheduleRequest a = Req("a", 0.2);
  a.locality.affinity = Label("grp");
  a.locality.anti_affinity = Label("anti");
  ASSERT_TRUE(ScheduleSharePod(pool, a, Supply(4)).ok());
  ScheduleRequest b = Req("b", 0.2);
  b.locality.affinity = Label("grp");
  b.locality.anti_affinity = Label("anti");
  auto res = ScheduleSharePod(pool, b, Supply(4));
  EXPECT_EQ(res.status().code(), StatusCode::kRejected);
}

TEST(Algorithm1, FirstAffinityRequestPrefersIdleDevice) {
  VgpuPool pool;
  // Busy device (no affinity) and an idle one.
  ASSERT_TRUE(ScheduleSharePod(pool, Req("busy", 0.2), Supply(4)).ok());
  const GpuId idle = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Activate(idle, GpuUuid("GPU-IDLE")).ok());
  ScheduleRequest a = Req("a", 0.2);
  a.locality.affinity = Label("grp");
  auto id = ScheduleSharePod(pool, a, Supply(4));
  ASSERT_TRUE(id.ok());
  // Lines 9-14: prefer the idle device so the group has headroom, even
  // though best-fit would have packed onto the busy one.
  EXPECT_EQ(*id, idle);
}

// ---- Anti-affinity / exclusion: Step 2 ----------------------------------

TEST(Algorithm1, AntiAffinitySpreadsAcrossDevices) {
  VgpuPool pool;
  ScheduleRequest a = Req("a", 0.2);
  a.locality.anti_affinity = Label("spread");
  ScheduleRequest b = Req("b", 0.2);
  b.locality.anti_affinity = Label("spread");
  auto d1 = ScheduleSharePod(pool, a, Supply(4));
  auto d2 = ScheduleSharePod(pool, b, Supply(4));
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_NE(*d1, *d2);
}

TEST(Algorithm1, ExclusionSeparatesTenants) {
  VgpuPool pool;
  ScheduleRequest a = Req("a", 0.2);
  a.locality.exclusion = Label("tenant-a");
  ScheduleRequest b = Req("b", 0.2);
  b.locality.exclusion = Label("tenant-b");
  ScheduleRequest a2 = Req("a2", 0.2);
  a2.locality.exclusion = Label("tenant-a");
  auto d1 = ScheduleSharePod(pool, a, Supply(4));
  auto d2 = ScheduleSharePod(pool, b, Supply(4));
  auto d3 = ScheduleSharePod(pool, a2, Supply(4));
  ASSERT_TRUE(d1.ok() && d2.ok() && d3.ok());
  EXPECT_NE(*d1, *d2);
  EXPECT_EQ(*d1, *d3);
}

TEST(Algorithm1, UnlabelledAvoidsExclusiveDevice) {
  VgpuPool pool;
  ScheduleRequest a = Req("a", 0.2);
  a.locality.exclusion = Label("tenant-a");
  auto d1 = ScheduleSharePod(pool, a, Supply(4));
  auto d2 = ScheduleSharePod(pool, Req("b", 0.2), Supply(4));
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_NE(*d1, *d2);
}

TEST(Algorithm1, IdleDevicePassesFiltersUnconditionally) {
  VgpuPool pool;
  // A previously-exclusive device whose tenant left: after detach the
  // labels are recomputed, and the idle device is usable by anyone.
  ScheduleRequest a = Req("a", 0.2);
  a.locality.exclusion = Label("tenant-a");
  auto d1 = ScheduleSharePod(pool, a, Supply(4, 1));
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(pool.Detach("a").ok());
  auto d2 = ScheduleSharePod(pool, Req("b", 0.2), Supply(0, 1));
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d1, *d2);
}

// ---- Step 3 preference order --------------------------------------------

TEST(Algorithm1, PrefersUnlabelledOverLabelledDevices) {
  VgpuPool pool;
  ScheduleRequest grp = Req("g", 0.2);
  grp.locality.affinity = Label("grp");
  ASSERT_TRUE(ScheduleSharePod(pool, grp, Supply(4)).ok());
  ASSERT_TRUE(ScheduleSharePod(pool, Req("plain", 0.5), Supply(4)).ok());
  // New unlabelled request: must pick the unlabelled device even though the
  // labelled one is emptier (worst-fit only applies within labelled ones).
  auto id = ScheduleSharePod(pool, Req("c", 0.3), Supply(4));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, pool.DeviceOf("plain"));
}

TEST(Algorithm1, WorstFitAmongLabelledDevices) {
  VgpuPool pool;
  ScheduleRequest g1 = Req("g1", 0.6);
  g1.locality.affinity = Label("grp-1");
  ScheduleRequest g2 = Req("g2", 0.2);
  g2.locality.affinity = Label("grp-2");
  ASSERT_TRUE(ScheduleSharePod(pool, g1, Supply(2, 1)).ok());
  ASSERT_TRUE(ScheduleSharePod(pool, g2, Supply(1, 1)).ok());
  ASSERT_EQ(pool.size(), 2u);
  // No unlabelled device exists and no free GPU: a plain request must go to
  // the labelled device with the MOST residual (worst fit) = g2's device.
  auto id = ScheduleSharePod(pool, Req("c", 0.3), Supply(0, 1));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, pool.DeviceOf("g2"));
}

TEST(Algorithm1, NodeTieBreakSpreadsIdleDevices) {
  // Four idle (activated) devices, two per node: simultaneous placements
  // must alternate nodes rather than queueing on one kubelet.
  VgpuPool pool;
  for (int n = 0; n < 2; ++n) {
    for (int g = 0; g < 2; ++g) {
      const GpuId id = pool.Create("node-" + std::to_string(n)).id;
      ASSERT_TRUE(
          pool.Activate(id, GpuUuid("GPU-" + id.value())).ok());
    }
  }
  auto d1 = ScheduleSharePod(pool, Req("a", 0.9), Supply(0));
  auto d2 = ScheduleSharePod(pool, Req("b", 0.9), Supply(0));
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_NE(pool.Get(*d1)->node, pool.Get(*d2)->node);
}

TEST(Algorithm1, WorstFitVariantSpreads) {
  VgpuPool pool;
  ASSERT_TRUE(ScheduleSharePod(pool, Req("a", 0.3), Supply(4),
                               PlacementVariant::kWorstFitEverywhere)
                  .ok());
  // Worst-fit prefers the roomiest feasible device: a fresh one is not
  // created while an existing one fits, but among existing devices the
  // emptiest wins.
  ASSERT_TRUE(ScheduleSharePod(pool, Req("b", 0.7), Supply(4),
                               PlacementVariant::kWorstFitEverywhere)
                  .ok());
  ASSERT_EQ(pool.size(), 1u);  // b still fit into a's residual 0.7
  ASSERT_TRUE(ScheduleSharePod(pool, Req("c", 0.5), Supply(4),
                               PlacementVariant::kWorstFitEverywhere)
                  .ok());
  ASSERT_EQ(pool.size(), 2u);
  // A 0.2 request now goes to the roomier device (residual 0.5), not the
  // full one (residual 0.0).
  auto d = ScheduleSharePod(pool, Req("d", 0.2), Supply(4),
                            PlacementVariant::kWorstFitEverywhere);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, pool.DeviceOf("c"));
}

TEST(Algorithm1, FirstFitVariantTakesFirstFeasible) {
  VgpuPool pool;
  ASSERT_TRUE(ScheduleSharePod(pool, Req("a", 0.7), Supply(4),
                               PlacementVariant::kFirstFit)
                  .ok());
  ASSERT_TRUE(ScheduleSharePod(pool, Req("b", 0.5), Supply(4),
                               PlacementVariant::kFirstFit)
                  .ok());
  ASSERT_EQ(pool.size(), 2u);
  // 0.3 fits the first device (residual 0.3) and first-fit stops there.
  auto d = ScheduleSharePod(pool, Req("c", 0.3), Supply(4),
                            PlacementVariant::kFirstFit);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, pool.DeviceOf("a"));
}

TEST(Algorithm1, MemoryOvercommitSkipsMemFilter) {
  VgpuPool pool;
  pool.set_memory_overcommit(true);
  ASSERT_TRUE(ScheduleSharePod(pool, Req("a", 0.3, 0.8), Supply(4)).ok());
  // 0.8 + 0.8 memory would be rejected without the extension.
  auto d = ScheduleSharePod(pool, Req("b", 0.3, 0.8), Supply(4));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, pool.DeviceOf("a"));
  EXPECT_GT(pool.Get(*d)->used_mem, 1.0);
}

TEST(Algorithm1, SliceClaimPrefersLowerPostPlacementFragmentation) {
  // On a spatial pool a slice claim ranks candidates by the fragmentation
  // each would have after first-fit placement, before residual capacity.
  VgpuPool pool;
  pool.EnableSpatial(7);
  const GpuId a = pool.Create("node-0").id;
  const GpuId b = pool.Create("node-0").id;
  auto slice = [](const std::string& name, int groups) {
    ScheduleRequest r = Req(name, 0.2);
    r.gpu.slice_groups = groups;
    return r;
  };
  ASSERT_TRUE(pool.Attach(a, "a0", slice("a0", 2).gpu, {}, 0).ok());
  ASSERT_TRUE(pool.Attach(b, "b0", slice("b0", 1).gpu, {}, 0).ok());
  ASSERT_TRUE(pool.Attach(b, "b1", slice("b1", 1).gpu, {}, 2).ok());
  // A temporal request ignores slices: best fit picks the tighter b.
  auto temporal = ScheduleSharePod(pool, Req("t", 0.1), Supply(4));
  ASSERT_TRUE(temporal.ok());
  EXPECT_EQ(*temporal, b);
  // a is "##.....", b is "#.#....". Two groups leave a one free run but
  // split b's ("#.####."), so the claim goes to a although b is tighter.
  auto claim = ScheduleSharePod(pool, slice("c", 2), Supply(4));
  ASSERT_TRUE(claim.ok());
  EXPECT_EQ(*claim, a);
  EXPECT_EQ(pool.SliceOf("c"), std::make_pair(2, 2));
}

TEST(Algorithm1, InvalidSpecRejected) {
  VgpuPool pool;
  ScheduleRequest r = Req("bad", 0.5);
  r.gpu.gpu_limit = 0.3;  // request > limit
  EXPECT_FALSE(ScheduleSharePod(pool, r, Supply(4)).ok());
}

// ---- Property: random request streams never violate invariants ----------

struct StreamParam {
  std::uint64_t seed;
};

class AlgorithmProperty : public ::testing::TestWithParam<StreamParam> {};

TEST_P(AlgorithmProperty, RandomStreamKeepsPoolInvariants) {
  Rng rng(GetParam().seed);
  VgpuPool pool;
  std::vector<std::string> placed;
  int supply = 32;
  for (int i = 0; i < 300; ++i) {
    if (!placed.empty() && rng.Chance(0.3)) {
      // Random departure.
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(placed.size()) - 1));
      ASSERT_TRUE(pool.Detach(placed[idx]).ok());
      placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(idx));
      continue;
    }
    ScheduleRequest r = Req("sp-" + std::to_string(i),
                            rng.Uniform(0.05, 0.6), rng.Uniform(0.05, 0.5));
    if (rng.Chance(0.2)) {
      r.locality.anti_affinity = Label("anti-" + std::to_string(
          rng.UniformInt(0, 2)));
    }
    if (rng.Chance(0.15)) {
      r.locality.exclusion = Label("excl-" + std::to_string(
          rng.UniformInt(0, 1)));
    }
    std::vector<NodeFreeGpus> free{
        {"node-0", supply - static_cast<int>(pool.size())}};
    auto result = ScheduleSharePod(pool, r, free);
    if (result.ok()) placed.push_back(r.sharepod);

    // Invariants: no device over-committed; exclusion uniform across a
    // device (CheckIndexInvariants replays every attachment's label).
    for (const VgpuInfo* d : pool.List()) {
      EXPECT_LE(d->used_util, 1.0 + 1e-9);
      EXPECT_LE(d->used_mem, 1.0 + 1e-9);
      EXPECT_GE(d->used_util, -1e-9);
    }
    ASSERT_TRUE(pool.CheckIndexInvariants().ok()) << "op " << i;
    EXPECT_LE(pool.size(), static_cast<std::size_t>(supply));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmProperty,
                         ::testing::Values(StreamParam{101}, StreamParam{202},
                                           StreamParam{303}, StreamParam{404},
                                           StreamParam{505}),
                         [](const ::testing::TestParamInfo<StreamParam>& i) {
                           return "seed" + std::to_string(i.param.seed);
                         });

}  // namespace
}  // namespace ks::kubeshare
