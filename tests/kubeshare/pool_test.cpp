#include "kubeshare/pool.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace ks::kubeshare {
namespace {

vgpu::ResourceSpec Spec(double request, double mem = 0.1) {
  vgpu::ResourceSpec s;
  s.gpu_request = request;
  s.gpu_limit = 1.0;
  s.gpu_mem = mem;
  return s;
}

vgpu::ResourceSpec SliceSpec(int groups, double request = 0.1) {
  vgpu::ResourceSpec s = Spec(request);
  s.slice_groups = groups;
  return s;
}

TEST(VgpuPool, CreateAssignsUniqueIds) {
  VgpuPool pool;
  const GpuId a = pool.Create("node-0").id;
  const GpuId b = pool.Create("node-0").id;
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.CountOnNode("node-0"), 2u);
  EXPECT_EQ(pool.CountOnNode("node-1"), 0u);
}

TEST(VgpuPool, CreateWithIdRejectsDuplicates) {
  VgpuPool pool;
  ASSERT_TRUE(pool.CreateWithId(GpuId("mine"), "node-0").ok());
  EXPECT_FALSE(pool.CreateWithId(GpuId("mine"), "node-1").ok());
  EXPECT_FALSE(pool.CreateWithId(GpuId(""), "node-0").ok());
}

TEST(VgpuPool, ActivateSetsUuidOnce) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  EXPECT_EQ(pool.Get(id)->state, VgpuState::kCreating);
  ASSERT_TRUE(pool.Activate(id, GpuUuid("GPU-X")).ok());
  EXPECT_EQ(pool.Get(id)->state, VgpuState::kIdle);
  EXPECT_EQ(pool.Get(id)->uuid, GpuUuid("GPU-X"));
  EXPECT_FALSE(pool.Activate(id, GpuUuid("GPU-Y")).ok());
  EXPECT_FALSE(pool.Activate(GpuId("ghost"), GpuUuid("GPU-Z")).ok());
}

TEST(VgpuPool, AttachReservesCapacity) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Attach(id, "a", Spec(0.6, 0.5), {}).ok());
  auto dev = pool.Get(id);
  EXPECT_DOUBLE_EQ(dev->used_util, 0.6);
  EXPECT_DOUBLE_EQ(dev->used_mem, 0.5);
  EXPECT_DOUBLE_EQ(dev->residual_util(), 0.4);
  EXPECT_EQ(dev->attached.size(), 1u);
  EXPECT_EQ(pool.DeviceOf("a"), id);
}

TEST(VgpuPool, AttachRejectsOvercommit) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Attach(id, "a", Spec(0.6), {}).ok());
  EXPECT_EQ(pool.Attach(id, "b", Spec(0.5), {}).code(),
            StatusCode::kResourceExhausted);
  // Memory over-commit is equally rejected (no memory over-commitment in
  // the paper's design).
  EXPECT_EQ(pool.Attach(id, "c", Spec(0.1, 0.95), {}).code(),
            StatusCode::kResourceExhausted);
  // Exact fill is allowed.
  EXPECT_TRUE(pool.Attach(id, "d", Spec(0.4, 0.5), {}).ok());
}

TEST(VgpuPool, AttachTwiceFails) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Attach(id, "a", Spec(0.1), {}).ok());
  EXPECT_EQ(pool.Attach(id, "a", Spec(0.1), {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(VgpuPool, ExclusionBlocksOtherLabels) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  LocalitySpec tenant_a;
  tenant_a.exclusion = Label("tenant-a");
  ASSERT_TRUE(pool.Attach(id, "a1", Spec(0.2), tenant_a).ok());
  LocalitySpec tenant_b;
  tenant_b.exclusion = Label("tenant-b");
  EXPECT_EQ(pool.Attach(id, "b1", Spec(0.2), tenant_b).code(),
            StatusCode::kRejected);
  LocalitySpec none;
  EXPECT_EQ(pool.Attach(id, "n1", Spec(0.2), none).code(),
            StatusCode::kRejected);
  // Same label shares fine.
  EXPECT_TRUE(pool.Attach(id, "a2", Spec(0.2), tenant_a).ok());
}

TEST(VgpuPool, ExclusiveRequestCannotJoinUnlabelledTenant) {
  // Exclusion is symmetric: a labelled request must not join a device an
  // unlabelled tenant occupies, which would relabel the device under the
  // running tenant.
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Attach(id, "n1", Spec(0.2), {}).ok());
  LocalitySpec tenant_a;
  tenant_a.exclusion = Label("tenant-a");
  EXPECT_EQ(pool.Attach(id, "a1", Spec(0.2), tenant_a).code(),
            StatusCode::kRejected);
  EXPECT_FALSE(pool.Get(id)->exclusion.has_value());
  EXPECT_TRUE(pool.Attach(id, "n2", Spec(0.2), {}).ok());
  ASSERT_TRUE(pool.CheckIndexInvariants().ok());
  // Once the device empties, the labelled request may take it.
  ASSERT_TRUE(pool.Detach("n1").ok());
  ASSERT_TRUE(pool.Detach("n2").ok());
  EXPECT_TRUE(pool.Attach(id, "a1", Spec(0.2), tenant_a).ok());
  EXPECT_EQ(pool.Get(id)->exclusion, Label("tenant-a"));
  ASSERT_TRUE(pool.CheckIndexInvariants().ok());
}

TEST(VgpuPool, AntiAffinityBlocksSameLabel) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  LocalitySpec anti;
  anti.anti_affinity = Label("spread-me");
  ASSERT_TRUE(pool.Attach(id, "a", Spec(0.2), anti).ok());
  EXPECT_EQ(pool.Attach(id, "b", Spec(0.2), anti).code(),
            StatusCode::kRejected);
}

TEST(VgpuPool, DetachRecomputesLabelsAndUsage) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  LocalitySpec anti;
  anti.anti_affinity = Label("L");
  ASSERT_TRUE(pool.Attach(id, "a", Spec(0.3), anti).ok());
  ASSERT_TRUE(pool.Attach(id, "b", Spec(0.2), {}).ok());
  auto device = pool.Detach("a");
  ASSERT_TRUE(device.ok());
  EXPECT_EQ(*device, id);
  auto dev = pool.Get(id);
  EXPECT_DOUBLE_EQ(dev->used_util, 0.2);
  // The anti-affinity label left with its contributor: the device can now
  // accept another "L" container.
  EXPECT_TRUE(pool.Attach(id, "c", Spec(0.2), anti).ok());
}

TEST(VgpuPool, DetachUnknownFails) {
  VgpuPool pool;
  EXPECT_FALSE(pool.Detach("ghost").ok());
}

TEST(VgpuPool, IdleTransitionAndRemove) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Activate(id, GpuUuid("GPU-X")).ok());
  ASSERT_TRUE(pool.Attach(id, "a", Spec(0.3), {}).ok());
  EXPECT_EQ(pool.Get(id)->state, VgpuState::kActive);
  EXPECT_FALSE(pool.Remove(id).ok());  // still attached
  ASSERT_TRUE(pool.Detach("a").ok());
  EXPECT_EQ(pool.Get(id)->state, VgpuState::kIdle);
  ASSERT_TRUE(pool.Remove(id).ok());
  EXPECT_FALSE(pool.Contains(id));
}

TEST(VgpuPool, AffinityLabelsAccumulate) {
  VgpuPool pool;
  const GpuId id = pool.Create("node-0").id;
  LocalitySpec g1, g2;
  g1.affinity = Label("grp-1");
  g2.affinity = Label("grp-2");
  ASSERT_TRUE(pool.Attach(id, "a", Spec(0.2), g1).ok());
  ASSERT_TRUE(pool.Attach(id, "b", Spec(0.2), g2).ok());
  auto dev = pool.Get(id);
  EXPECT_EQ(dev->affinity.size(), 2u);
  EXPECT_TRUE(dev->affinity.count(Label("grp-1")) > 0);
  EXPECT_TRUE(dev->affinity.count(Label("grp-2")) > 0);
}

TEST(VgpuPoolSlices, AttachAllocatesContiguousFirstFitRuns) {
  VgpuPool pool;
  pool.EnableSpatial(7);
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Attach(id, "a", SliceSpec(2), {}).ok());
  ASSERT_TRUE(pool.Attach(id, "b", SliceSpec(3), {}).ok());
  EXPECT_EQ(pool.SliceOf("a"), std::make_pair(0, 2));
  EXPECT_EQ(pool.SliceOf("b"), std::make_pair(2, 3));
  EXPECT_EQ(pool.Get(id)->slices.DebugString(), "#####..");
  // 3 more groups do not fit the 2 free ones.
  EXPECT_EQ(pool.Attach(id, "c", SliceSpec(3), {}).code(),
            StatusCode::kResourceExhausted);
  // A temporal attachment (no claim) coexists without consuming groups.
  ASSERT_TRUE(pool.Attach(id, "d", Spec(0.1), {}).ok());
  EXPECT_FALSE(pool.SliceOf("d").has_value());
  EXPECT_EQ(pool.Get(id)->slices.UsedGroups(), 5);
  ASSERT_TRUE(pool.CheckIndexInvariants().ok());
}

TEST(VgpuPoolSlices, DetachReleasesGroupsForReuse) {
  VgpuPool pool;
  pool.EnableSpatial(7);
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Attach(id, "a", SliceSpec(2), {}).ok());
  ASSERT_TRUE(pool.Attach(id, "b", SliceSpec(2), {}).ok());
  ASSERT_TRUE(pool.Attach(id, "c", SliceSpec(3), {}).ok());
  ASSERT_TRUE(pool.Detach("b").ok());
  // The freed middle run is fragmented away from the tail free space...
  EXPECT_EQ(pool.Get(id)->slices.DebugString(), "##..###");
  // ...and first-fit reuses it for the next fitting claim.
  ASSERT_TRUE(pool.Attach(id, "e", SliceSpec(2), {}).ok());
  EXPECT_EQ(pool.SliceOf("e"), std::make_pair(2, 2));
  ASSERT_TRUE(pool.CheckIndexInvariants().ok());
}

TEST(VgpuPoolSlices, PinnedOffsetAttachRestoresExactPlacement) {
  // The DevMgr rebuild path re-attaches recovered sharePods at the offset
  // persisted in their spec; the pool must honor it or reject it, never
  // silently relocate.
  VgpuPool pool;
  pool.EnableSpatial(7);
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Attach(id, "a", SliceSpec(2), {}, /*slice_offset=*/4).ok());
  EXPECT_EQ(pool.SliceOf("a"), std::make_pair(4, 2));
  EXPECT_EQ(pool.Attach(id, "b", SliceSpec(3), {}, /*slice_offset=*/3).code(),
            StatusCode::kResourceExhausted);  // overlaps a's run
  ASSERT_TRUE(pool.Attach(id, "b", SliceSpec(3), {}, /*slice_offset=*/0).ok());
  EXPECT_EQ(pool.Get(id)->slices.DebugString(), "###.##.");
  ASSERT_TRUE(pool.CheckIndexInvariants().ok());
}

TEST(VgpuPoolSlices, ClaimsRejectedWithoutSpatialMode) {
  VgpuPool pool;  // spatial off: devices have no slice geometry
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Attach(id, "a", SliceSpec(2), {}).ok());
  // The claim is ignored on a temporal pool — no slice is recorded.
  EXPECT_FALSE(pool.SliceOf("a").has_value());
  EXPECT_DOUBLE_EQ(pool.FragmentationRatio(), 0.0);
}

TEST(VgpuPoolSlices, OversizedClaimRejected) {
  VgpuPool pool;
  pool.EnableSpatial(4);
  const GpuId id = pool.Create("node-0").id;
  EXPECT_EQ(pool.Attach(id, "a", SliceSpec(5), {}).code(),
            StatusCode::kRejected);
  EXPECT_EQ(pool.Get(id)->slices.UsedGroups(), 0);
}

TEST(VgpuPoolSlices, FragmentationRatioTracksPoolShape) {
  VgpuPool pool;
  pool.EnableSpatial(7);
  const GpuId id = pool.Create("node-0").id;
  EXPECT_DOUBLE_EQ(pool.FragmentationRatio(), 0.0);
  ASSERT_TRUE(pool.Attach(id, "a", SliceSpec(2), {}, 0).ok());
  ASSERT_TRUE(pool.Attach(id, "b", SliceSpec(2), {}, 3).ok());
  // "##.##..": free groups {2, 5, 6}, largest run 2 -> 1 - 2/3.
  EXPECT_DOUBLE_EQ(pool.FragmentationRatio(), 1.0 - 2.0 / 3.0);
  ASSERT_TRUE(pool.Detach("b").ok());
  // "##.....": one contiguous free run again.
  EXPECT_DOUBLE_EQ(pool.FragmentationRatio(), 0.0);
}

TEST(VgpuPoolSlices, DebugStringPinsSliceOccupancy) {
  // The crash-restart byte-equality tests compare DebugString dumps; on
  // spatial pools those must include the slice picture so a rebuild that
  // relocates a slice cannot pass.
  VgpuPool pool;
  pool.EnableSpatial(7);
  const GpuId id = pool.Create("node-0").id;
  ASSERT_TRUE(pool.Activate(id, GpuUuid("GPU-X")).ok());
  ASSERT_TRUE(pool.Attach(id, "a", SliceSpec(3), {}).ok());
  EXPECT_NE(pool.DebugString().find("slices=###...."), std::string::npos)
      << pool.DebugString();
}

/// A uniformly drawn device of a non-empty pool.
GpuId RandomDevice(Rng& rng, const VgpuPool& pool) {
  const std::vector<const VgpuInfo*> devices = pool.List();
  return devices[static_cast<std::size_t>(rng.UniformInt(
                     0, static_cast<std::int64_t>(devices.size()) - 1))]
      ->id;
}

/// The first idle device in GpuId order, if any.
std::optional<GpuId> FirstIdle(const VgpuPool& pool) {
  for (const VgpuInfo* d : pool.List()) {
    if (d->idle()) return d->id;
  }
  return std::nullopt;
}

TEST(PoolIndexInvariants, HoldAcrossRandomMutations) {
  // Directly drive every pool mutator and re-check the pool's invariants
  // after each step.
  Rng rng(5150);
  VgpuPool pool;
  std::vector<std::string> attached;
  int next_pod = 0;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t action = rng.UniformInt(0, 9);
    const std::optional<GpuId> idle = FirstIdle(pool);
    if (action <= 3) {  // attach to a random existing or new device
      if (pool.size() == 0 || rng.Chance(0.3)) {
        pool.Create("node-" + std::to_string(rng.UniformInt(0, 2)));
      }
      const GpuId id = RandomDevice(rng, pool);
      const std::string name = "pod-" + std::to_string(next_pod++);
      vgpu::ResourceSpec gpu;
      gpu.gpu_request = 0.05 * static_cast<double>(rng.UniformInt(1, 12));
      gpu.gpu_mem = 0.05 * static_cast<double>(rng.UniformInt(1, 8));
      LocalitySpec locality;
      if (rng.Chance(0.4)) {
        locality.affinity =
            Label("aff-" + std::to_string(rng.UniformInt(0, 2)));
      }
      if (pool.Attach(id, name, gpu, locality).ok()) {
        attached.push_back(name);
      }
    } else if (action <= 5 && !attached.empty()) {
      const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(attached.size()) - 1));
      (void)pool.Detach(attached[pick]);
      attached.erase(attached.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (action == 6 && !attached.empty()) {
      const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(attached.size()) - 1));
      (void)pool.UpdateAttachment(
          attached[pick], 0.05 * static_cast<double>(rng.UniformInt(1, 14)),
          1.0);
    } else if (action == 7 && idle.has_value()) {
      (void)pool.Remove(*idle);
    } else if (action == 8) {
      (void)pool.CreateWithId(GpuId("pinned-" + std::to_string(i)),
                              "node-" + std::to_string(rng.UniformInt(0, 2)));
    } else {
      pool.Create("node-" + std::to_string(rng.UniformInt(0, 2)));
    }
    const Status inv = pool.CheckIndexInvariants();
    ASSERT_TRUE(inv.ok()) << "op " << i << ": " << inv;
  }
}

TEST(PoolIndexInvariants, SliceOccupancyHoldsAcrossRandomMutations) {
  // Spatial pool under random slice-claim churn: CheckIndexInvariants
  // rebuilds every device's SliceMap from the attachment table and any
  // drift (leaked groups, overlapping runs, stale occupancy after Detach)
  // is a mutator bug.
  Rng rng(6160);
  VgpuPool pool;
  pool.EnableSpatial(7);
  std::vector<std::string> attached;
  int next_pod = 0;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t action = rng.UniformInt(0, 9);
    const std::optional<GpuId> idle = FirstIdle(pool);
    if (action <= 4) {
      if (pool.size() == 0 || rng.Chance(0.3)) {
        pool.Create("node-" + std::to_string(rng.UniformInt(0, 2)));
      }
      const GpuId id = RandomDevice(rng, pool);
      const std::string name = "pod-" + std::to_string(next_pod++);
      vgpu::ResourceSpec gpu;
      gpu.gpu_request = 0.05 * static_cast<double>(rng.UniformInt(1, 6));
      gpu.gpu_mem = 0.05 * static_cast<double>(rng.UniformInt(1, 4));
      if (rng.Chance(0.85)) {
        gpu.slice_groups = static_cast<int>(rng.UniformInt(1, 4));
      }
      // Occasionally pin an explicit offset (the DevMgr rebuild path).
      const int offset =
          rng.Chance(0.2) ? static_cast<int>(rng.UniformInt(0, 6)) : -1;
      if (pool.Attach(id, name, gpu, LocalitySpec{}, offset).ok()) {
        attached.push_back(name);
        if (gpu.slice_groups > 0) {
          EXPECT_TRUE(pool.SliceOf(name).has_value()) << name;
        }
      }
    } else if (action <= 7 && !attached.empty()) {
      const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(attached.size()) - 1));
      (void)pool.Detach(attached[pick]);
      attached.erase(attached.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (action == 8 && idle.has_value()) {
      (void)pool.Remove(*idle);
    } else {
      pool.Create("node-" + std::to_string(rng.UniformInt(0, 2)));
    }
    const Status inv = pool.CheckIndexInvariants();
    ASSERT_TRUE(inv.ok()) << "op " << i << ": " << inv;
    EXPECT_GE(pool.FragmentationRatio(), 0.0);
    EXPECT_LE(pool.FragmentationRatio(), 1.0);
  }
}

}  // namespace
}  // namespace ks::kubeshare
