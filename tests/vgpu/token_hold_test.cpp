// Token holds of the per-node daemon: each hold lives in its container's
// state, and every timer it arms re-checks the hold by container id and
// grant serial. These tests pin what that bookkeeping must keep: a stale
// hand-off grants nothing, HolderOf() reports the smallest holding id, and
// pending_timers() / ActiveHolders() stay exact across grant, expiry,
// release, fence and Restart().

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "vgpu/token_backend.hpp"

namespace ks::vgpu {
namespace {

/// Records grants and expiries. Releases on expiry only when `polite`, and
/// never re-requests on its own.
class HoldClient : public TokenClient {
 public:
  HoldClient(TokenBackend* backend, ContainerId id)
      : backend_(backend), id_(std::move(id)) {}

  void OnTokenGranted(Time expiry) override {
    ++grants;
    last_expiry = expiry;
  }
  void OnTokenExpired() override {
    ++expiries;
    if (polite) (void)backend_->ReleaseToken(id_);
  }
  void OnBackendRestart() override { ++restarts; }

  TokenBackend* backend_;
  ContainerId id_;
  int grants = 0;
  int expiries = 0;
  int restarts = 0;
  bool polite = false;
  Time last_expiry{0};
};

class TokenHoldTest : public ::testing::Test {
 protected:
  void Build() {
    cfg_.quota = Millis(100);
    cfg_.exchange_latency = Micros(1500);
    cfg_.restart_downtime = Micros(200);
    backend_ = std::make_unique<TokenBackend>(&sim_, cfg_);
    backend_->RegisterDevice(dev_);
  }

  HoldClient* Add(const std::string& name, int slice_groups = 0) {
    clients_.push_back(
        std::make_unique<HoldClient>(backend_.get(), ContainerId(name)));
    ResourceSpec spec;
    spec.gpu_request = 0.2;
    spec.gpu_limit = 1.0;
    spec.slice_groups = slice_groups;
    EXPECT_TRUE(backend_
                    ->RegisterContainer(ContainerId(name), dev_, spec,
                                        clients_.back().get())
                    .ok());
    return clients_.back().get();
  }

  sim::Simulation sim_;
  BackendConfig cfg_;
  std::unique_ptr<TokenBackend> backend_;
  GpuUuid dev_{"GPU-0"};
  std::vector<std::unique_ptr<HoldClient>> clients_;
};

TEST_F(TokenHoldTest, HandOffAfterUnregisterAndReRegisterGrantsNothing) {
  Build();
  HoldClient* first = Add("a");
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Micros(500));
  ASSERT_TRUE(backend_->UnregisterContainer(ContainerId("a")).ok());
  // Back under the same id, not requesting: the first hand-off (due at
  // 1.5 ms) finds a registered "a" that holds nothing.
  HoldClient* second = Add("a");
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(first->grants, 0);
  EXPECT_EQ(second->grants, 0);
  EXPECT_EQ(backend_->StatsOf(ContainerId("a")).grants, 0u);
  EXPECT_FALSE(backend_->HolderOf(dev_).has_value());
  EXPECT_EQ(backend_->ActiveHolders(dev_), 0u);
  EXPECT_EQ(backend_->pending_timers(), 0u);
  EXPECT_EQ(sim_.pending(), 0u);

  // The new registration's own grant still works.
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Millis(7));
  EXPECT_EQ(second->grants, 1);
  EXPECT_EQ(second->last_expiry, Millis(5) + Micros(1500) + Millis(100));
}

TEST_F(TokenHoldTest, HandOffAfterAReleaseMidExchangeGrantsNothing) {
  Build();
  HoldClient* c = Add("a");
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Micros(500));
  // The container gives the token back before the exchange completes; it
  // stays registered, so only the ended hold tells the hand-off to stop.
  ASSERT_TRUE(backend_->ReleaseToken(ContainerId("a")).ok());
  EXPECT_EQ(backend_->ActiveHolders(dev_), 0u);
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(c->grants, 0);
  EXPECT_EQ(backend_->StatsOf(ContainerId("a")).grants, 0u);
  EXPECT_EQ(backend_->ActiveHolders(dev_), 0u);
  EXPECT_EQ(backend_->pending_timers(), 0u);
  EXPECT_EQ(sim_.pending(), 0u);
}

TEST_F(TokenHoldTest, HandOffAcrossRestartReattachGrantsNothing) {
  Build();
  HoldClient* c = Add("a");
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Micros(300));
  // The daemon restarts mid-exchange and reattaches "a" at 0.5 ms, before
  // the old hand-off lands at 1.5 ms.
  backend_->Restart();
  sim_.RunUntil(Micros(600));
  ASSERT_FALSE(backend_->down());
  EXPECT_EQ(c->restarts, 1);
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(c->grants, 0);
  EXPECT_EQ(backend_->ActiveHolders(dev_), 0u);
  EXPECT_EQ(backend_->pending_timers(), 0u);
}

TEST_F(TokenHoldTest, HolderOfReportsTheSmallestIdAmongSpatialHolders) {
  cfg_.spatial_enabled = true;
  cfg_.sm_groups = 7;
  Build();
  Add("zeta", 3);
  Add("alpha", 3);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("zeta")).ok());
  ASSERT_TRUE(backend_->RequestToken(ContainerId("alpha")).ok());
  EXPECT_EQ(backend_->ActiveHolders(dev_), 2u);
  // "alpha" was granted second and still reports first.
  EXPECT_EQ(backend_->HolderOf(dev_), ContainerId("alpha"));
  sim_.RunUntil(Millis(10));
  ASSERT_TRUE(backend_->ReleaseToken(ContainerId("alpha")).ok());
  EXPECT_EQ(backend_->HolderOf(dev_), ContainerId("zeta"));
  EXPECT_EQ(backend_->ActiveHolders(dev_), 1u);
  EXPECT_EQ(backend_->peak_active_holders(), 2u);
}

TEST_F(TokenHoldTest, TimersAndHoldersStayExactAcrossTheHoldLifecycle) {
  Build();
  HoldClient* c = Add("a");
  EXPECT_EQ(backend_->pending_timers(), 0u);

  // Grant: the hand-off is the one timer, and the hold counts already.
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  EXPECT_EQ(backend_->ActiveHolders(dev_), 1u);
  EXPECT_EQ(backend_->pending_timers(), 1u);
  EXPECT_EQ(sim_.pending(), 1u);

  // Hand-off done: the quota expiry replaces it.
  sim_.RunUntil(Millis(2));
  ASSERT_EQ(c->grants, 1);
  EXPECT_EQ(backend_->pending_timers(), 1u);
  EXPECT_EQ(sim_.pending(), 1u);

  // Expired but not released: the holder overruns, nothing is armed.
  sim_.RunUntil(Millis(102));
  ASSERT_EQ(c->expiries, 1);
  EXPECT_EQ(backend_->ActiveHolders(dev_), 1u);
  EXPECT_EQ(backend_->HolderOf(dev_), ContainerId("a"));
  EXPECT_EQ(backend_->pending_timers(), 0u);

  // Release ends the hold.
  ASSERT_TRUE(backend_->ReleaseToken(ContainerId("a")).ok());
  EXPECT_EQ(backend_->ActiveHolders(dev_), 0u);
  EXPECT_FALSE(backend_->HolderOf(dev_).has_value());
  EXPECT_EQ(backend_->pending_timers(), 0u);
  EXPECT_EQ(sim_.pending(), 0u);

  // An early release cancels the armed expiry. (The idle gap lets the
  // full first hold age out of the usage window's gpu_limit check.)
  sim_.RunUntil(Millis(300));
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Millis(305));
  ASSERT_EQ(c->grants, 2);
  ASSERT_TRUE(backend_->ReleaseToken(ContainerId("a")).ok());
  EXPECT_EQ(backend_->pending_timers(), 0u);
  EXPECT_EQ(sim_.pending(), 0u);

  // Restart with a valid hold: the hold and its expiry die, the come-back
  // is the one timer, and the reattached container holds nothing.
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Millis(310));
  ASSERT_EQ(c->grants, 3);
  backend_->Restart();
  EXPECT_EQ(backend_->ActiveHolders(dev_), 0u);
  EXPECT_EQ(backend_->pending_timers(), 1u);
  EXPECT_EQ(sim_.pending(), 1u);
  sim_.RunUntil(Millis(311));
  EXPECT_EQ(c->restarts, 1);
  EXPECT_EQ(backend_->pending_timers(), 0u);
  EXPECT_EQ(sim_.pending(), 0u);
  EXPECT_EQ(backend_->ReleaseToken(ContainerId("a")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(backend_->grants(), 3u);
}

TEST_F(TokenHoldTest, OverstayFenceReclaimsTheHoldAndDisarms) {
  cfg_.enforcement.enabled = true;
  cfg_.enforcement.fence_grace = Millis(50);
  Build();
  HoldClient* rude = Add("rude");
  HoldClient* next = Add("next");
  next->polite = true;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("rude")).ok());
  sim_.RunUntil(Millis(2));
  // Expiry and fence are armed with the hand-off.
  EXPECT_EQ(backend_->pending_timers(), 2u);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("next")).ok());

  // "rude" never releases: at expiry + fence_grace the daemon reclaims the
  // token and hands it to "next".
  sim_.RunUntil(Micros(1500) + Millis(100) + Millis(50));
  EXPECT_EQ(rude->expiries, 1);
  EXPECT_EQ(backend_->IsolationOf(ContainerId("rude")).overstays, 1u);
  EXPECT_EQ(backend_->HolderOf(dev_), ContainerId("next"));
  EXPECT_EQ(backend_->ActiveHolders(dev_), 1u);
  EXPECT_EQ(backend_->pending_timers(), 1u);  // next's hand-off
  sim_.RunUntil(Millis(160));
  EXPECT_EQ(next->grants, 1);
  EXPECT_EQ(backend_->pending_timers(), 2u);  // next's expiry and fence
  // An extension moves both deadlines; the old ones must not fire.
  ASSERT_TRUE(backend_->ExtendQuota(ContainerId("next"), Millis(30)).ok());
  EXPECT_EQ(backend_->pending_timers(), 2u);
  sim_.RunUntil(next->last_expiry + Millis(29));
  EXPECT_EQ(next->expiries, 0);
  sim_.RunUntil(next->last_expiry + Millis(30));
  EXPECT_EQ(next->expiries, 1);
  EXPECT_EQ(backend_->ActiveHolders(dev_), 0u);  // polite release
  EXPECT_EQ(backend_->pending_timers(), 0u);
  EXPECT_EQ(backend_->IsolationOf(ContainerId("next")).overstays, 0u);
}

}  // namespace
}  // namespace ks::vgpu
