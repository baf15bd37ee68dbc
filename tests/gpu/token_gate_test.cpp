// Unit tests for the device-side isolation primitives: the per-owner token
// fencing gate (epoch/floor FencingGate idiom checked at Submit) and the
// server-side memory quota checked at Allocate. The fencing golden tests
// then pin the same behavior end to end.

#include "gpu/device.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ks::gpu {
namespace {

template <typename Device>
class TokenGateTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  Device dev_{&sim_, GpuUuid("GPU-0000")};
  ContainerId c1_{"c1"};
  ContainerId c2_{"c2"};
  std::vector<std::pair<ContainerId, DeviceViolation>> violations_;

  void ObserveViolations() {
    dev_.SetViolationFn([this](const ContainerId& owner, DeviceViolation v) {
      violations_.emplace_back(owner, v);
    });
  }
};

using Devices = ::testing::Types<GpuDevice>;
TYPED_TEST_SUITE(TokenGateTest, Devices);

TYPED_TEST(TokenGateTest, NoGateAdmitsEverything) {
  // The default (and every native pod): no gate, nothing changes.
  bool done = false;
  EXPECT_NE(this->dev_.Submit(this->c1_, {Millis(10), 0.0, "k"},
                              [&] { done = true; }),
            0u);
  EXPECT_TRUE(this->dev_.TokenGateAdmits(this->c1_));
  this->sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(this->dev_.fenced_kernel_rejections(), 0u);
}

TYPED_TEST(TokenGateTest, FreshGateRejectsUntilEpochAdmitted) {
  this->ObserveViolations();
  this->dev_.EnforceTokenGate(this->c1_);
  EXPECT_FALSE(this->dev_.TokenGateAdmits(this->c1_));
  bool done = false;
  EXPECT_EQ(this->dev_.Submit(this->c1_, {Millis(10), 0.0, "k"},
                              [&] { done = true; }),
            0u);
  this->sim_.Run();
  EXPECT_FALSE(done);  // rejected submits never call back
  EXPECT_EQ(this->dev_.fenced_kernel_rejections(), 1u);
  EXPECT_EQ(this->dev_.FencedRejectionsOf(this->c1_), 1u);
  ASSERT_EQ(this->violations_.size(), 1u);
  EXPECT_EQ(this->violations_[0].first, this->c1_);
  EXPECT_EQ(this->violations_[0].second, DeviceViolation::kFencedSubmit);
  // Other owners are unaffected by c1's gate.
  EXPECT_TRUE(this->dev_.TokenGateAdmits(this->c2_));
}

TYPED_TEST(TokenGateTest, AdmittedEpochOpensTheGate) {
  this->dev_.EnforceTokenGate(this->c1_);
  this->dev_.AdmitTokenEpoch(this->c1_, 1);
  EXPECT_TRUE(this->dev_.TokenGateAdmits(this->c1_));
  bool done = false;
  EXPECT_NE(this->dev_.Submit(this->c1_, {Millis(10), 0.0, "k"},
                              [&] { done = true; }),
            0u);
  this->sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(this->dev_.fenced_kernel_rejections(), 0u);
}

TYPED_TEST(TokenGateTest, FenceRaisesFloorPastCurrentEpoch) {
  this->dev_.EnforceTokenGate(this->c1_);
  this->dev_.AdmitTokenEpoch(this->c1_, 1);
  this->dev_.FenceTokenEpoch(this->c1_);
  EXPECT_FALSE(this->dev_.TokenGateAdmits(this->c1_));
  EXPECT_EQ(this->dev_.Submit(this->c1_, {Millis(10), 0.0, "k"}, [] {}), 0u);
  // A stale epoch replayed after the fence stays rejected...
  this->dev_.AdmitTokenEpoch(this->c1_, 1);
  EXPECT_FALSE(this->dev_.TokenGateAdmits(this->c1_));
  // ...and only a newer grant re-opens the gate.
  this->dev_.AdmitTokenEpoch(this->c1_, 2);
  EXPECT_TRUE(this->dev_.TokenGateAdmits(this->c1_));
  EXPECT_NE(this->dev_.Submit(this->c1_, {Millis(10), 0.0, "k"}, [] {}), 0u);
  this->sim_.Run();
}

TYPED_TEST(TokenGateTest, LiftTokenGateRestoresAdmitAll) {
  this->dev_.EnforceTokenGate(this->c1_);
  EXPECT_FALSE(this->dev_.TokenGateAdmits(this->c1_));
  this->dev_.LiftTokenGate(this->c1_);
  EXPECT_TRUE(this->dev_.TokenGateAdmits(this->c1_));
  EXPECT_NE(this->dev_.Submit(this->c1_, {Millis(10), 0.0, "k"}, [] {}), 0u);
  this->sim_.Run();
}

TYPED_TEST(TokenGateTest, MemoryQuotaRejectsBeyondLimit) {
  this->ObserveViolations();
  this->dev_.SetMemoryQuota(this->c1_, 1000);
  auto p1 = this->dev_.Allocate(this->c1_, 800);
  ASSERT_TRUE(p1.ok());
  auto p2 = this->dev_.Allocate(this->c1_, 300);
  ASSERT_FALSE(p2.ok());
  EXPECT_EQ(p2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(this->dev_.memory_quota_rejections(), 1u);
  ASSERT_EQ(this->violations_.size(), 1u);
  EXPECT_EQ(this->violations_[0].second, DeviceViolation::kMemoryQuota);
  // The quota is per owner: c2 allocates freely against physical capacity.
  EXPECT_TRUE(this->dev_.Allocate(this->c2_, 300).ok());
  // Freeing brings c1 back under quota.
  ASSERT_TRUE(this->dev_.Free(*p1).ok());
  EXPECT_TRUE(this->dev_.Allocate(this->c1_, 300).ok());
}

TYPED_TEST(TokenGateTest, ClearMemoryQuotaRestoresCapacityOnlyBehavior) {
  this->dev_.SetMemoryQuota(this->c1_, 100);
  EXPECT_FALSE(this->dev_.Allocate(this->c1_, 200).ok());
  this->dev_.ClearMemoryQuota(this->c1_);
  EXPECT_TRUE(this->dev_.Allocate(this->c1_, 200).ok());
  EXPECT_EQ(this->dev_.memory_quota_rejections(), 1u);
}

}  // namespace
}  // namespace ks::gpu
