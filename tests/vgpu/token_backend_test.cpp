#include "vgpu/token_backend.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "metrics/latency_digest.hpp"

namespace ks::vgpu {
namespace {

/// Scripted client: records grants/expiries; optionally holds the token for
/// a fixed busy time then releases and optionally re-requests (modeling a
/// container with an infinite kernel stream).
class FakeClient : public TokenClient {
 public:
  FakeClient(sim::Simulation* sim, TokenBackend* backend, ContainerId id)
      : sim_(sim), backend_(backend), id_(std::move(id)) {}

  void OnTokenGranted(Time expiry) override {
    ++grants;
    last_expiry = expiry;
    holding = true;
    if (greedy) {
      // Hold until expiry; release on OnTokenExpired.
      return;
    }
    // Hold for busy_time then release early.
    sim_->ScheduleAfter(busy_time, [this] {
      if (!holding) return;
      holding = false;
      (void)backend_->ReleaseToken(id_);
      if (rerequest) (void)backend_->RequestToken(id_);
    });
  }

  void OnTokenExpired() override {
    ++expiries;
    if (!holding) return;
    holding = false;
    (void)backend_->ReleaseToken(id_);
    if (rerequest) (void)backend_->RequestToken(id_);
  }

  void OnBackendRestart() override {
    // The restarted daemon holds no token for anyone: ask again.
    holding = false;
    if (rerequest) (void)backend_->RequestToken(id_);
  }

  sim::Simulation* sim_;
  TokenBackend* backend_;
  ContainerId id_;
  int grants = 0;
  int expiries = 0;
  Time last_expiry{0};
  bool holding = false;
  bool greedy = true;     // wants the GPU continuously
  bool rerequest = true;  // asks again after releasing
  Duration busy_time = Millis(10);
};

class TokenBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.quota = Millis(100);
    cfg_.exchange_latency = Micros(1500);
    cfg_.usage_window = Seconds(10);
    backend_ = std::make_unique<TokenBackend>(&sim_, cfg_);
    backend_->RegisterDevice(dev_);
  }

  FakeClient* AddContainer(const std::string& name, double request,
                           double limit) {
    auto client =
        std::make_unique<FakeClient>(&sim_, backend_.get(), ContainerId(name));
    FakeClient* raw = client.get();
    ResourceSpec spec;
    spec.gpu_request = request;
    spec.gpu_limit = limit;
    EXPECT_TRUE(backend_
                    ->RegisterContainer(ContainerId(name), dev_, spec,
                                        raw)
                    .ok());
    clients_.push_back(std::move(client));
    return raw;
  }

  sim::Simulation sim_;
  BackendConfig cfg_;
  std::unique_ptr<TokenBackend> backend_;
  GpuUuid dev_{"GPU-0"};
  std::vector<std::unique_ptr<FakeClient>> clients_;
};

TEST_F(TokenBackendTest, RejectsInvalidSpec) {
  FakeClient client(&sim_, backend_.get(), ContainerId("bad"));
  ResourceSpec spec;
  spec.gpu_request = 0.8;
  spec.gpu_limit = 0.5;
  EXPECT_FALSE(
      backend_->RegisterContainer(ContainerId("bad"), dev_, spec, &client)
          .ok());
  spec = ResourceSpec{};
  EXPECT_FALSE(
      backend_->RegisterContainer(ContainerId("bad"), dev_, spec, nullptr)
          .ok());
}

TEST(ResourceSpecTest, NanFractionsFailValidation) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double ResourceSpec::*field :
       {&ResourceSpec::gpu_request, &ResourceSpec::gpu_limit,
        &ResourceSpec::gpu_mem}) {
    ResourceSpec spec;
    spec.*field = nan;
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(TokenBackendTest, DuplicateRegistrationFails) {
  AddContainer("c1", 0.3, 0.6);
  FakeClient extra(&sim_, backend_.get(), ContainerId("c1"));
  EXPECT_EQ(backend_
                ->RegisterContainer(ContainerId("c1"), dev_, ResourceSpec{},
                                    &extra)
                .status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(TokenBackendTest, GrantAfterExchangeLatency) {
  FakeClient* c = AddContainer("c1", 0.3, 1.0);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  EXPECT_EQ(c->grants, 0);  // grant arrives via event, not synchronously
  sim_.RunUntil(Millis(2));
  EXPECT_EQ(c->grants, 1);
  EXPECT_EQ(c->last_expiry, Micros(1500) + Millis(100));
}

TEST_F(TokenBackendTest, UnknownContainerRequestFails) {
  EXPECT_EQ(backend_->RequestToken(ContainerId("ghost")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(backend_->ReleaseToken(ContainerId("ghost")).code(),
            StatusCode::kNotFound);
}

TEST_F(TokenBackendTest, ReleaseWithoutHoldingFails) {
  AddContainer("c1", 0.3, 1.0);
  EXPECT_EQ(backend_->ReleaseToken(ContainerId("c1")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TokenBackendTest, TokenExpiresAfterQuota) {
  FakeClient* c = AddContainer("c1", 0.3, 1.0);
  c->rerequest = false;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  sim_.RunUntil(Millis(150));
  EXPECT_EQ(c->expiries, 1);
  EXPECT_FALSE(backend_->HolderOf(dev_).has_value());
}

TEST_F(TokenBackendTest, GreedySingleContainerKeepsReacquiring) {
  FakeClient* c = AddContainer("c1", 0.3, 1.0);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  sim_.RunUntil(Seconds(1));
  // ~10 quota periods in 1s; each cycle = exchange + quota.
  EXPECT_GE(c->grants, 9);
  EXPECT_LE(c->grants, 10);
}

TEST_F(TokenBackendTest, UsageTracksHolding) {
  FakeClient* c = AddContainer("c1", 0.3, 1.0);
  (void)c;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  sim_.RunUntil(Seconds(2));
  // Greedy container with limit 1.0: usage near 1 (minus exchange slivers).
  EXPECT_GT(backend_->UsageOf(ContainerId("c1")), 0.9);
}

TEST_F(TokenBackendTest, LimitThrottlesGreedyContainer) {
  FakeClient* c = AddContainer("c1", 0.3, 0.6);
  (void)c;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  sim_.RunUntil(Seconds(30));
  EXPECT_NEAR(backend_->UsageOf(ContainerId("c1")), 0.6, 0.05);
}

TEST_F(TokenBackendTest, TwoEqualGreedyContainersSplitEvenly) {
  AddContainer("a", 0.3, 0.6);
  AddContainer("b", 0.4, 0.6);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  ASSERT_TRUE(backend_->RequestToken(ContainerId("b")).ok());
  sim_.RunUntil(Seconds(60));
  // Fig 6 regime [200s,400s]: requests sum to 0.7 < 1; fair split is
  // 0.5/0.5 within the 0.6 limits.
  EXPECT_NEAR(backend_->UsageOf(ContainerId("a")), 0.5, 0.05);
  EXPECT_NEAR(backend_->UsageOf(ContainerId("b")), 0.5, 0.05);
}

TEST_F(TokenBackendTest, RequestsArePinnedWhenCapacitySaturated) {
  // Fig 6 regime [400s,660s]: requests 0.3+0.4+0.3 = 1.0; each container is
  // pinned at its gpu_request.
  AddContainer("a", 0.3, 0.6);
  AddContainer("b", 0.4, 0.6);
  AddContainer("c", 0.3, 0.5);
  for (const char* n : {"a", "b", "c"}) {
    ASSERT_TRUE(backend_->RequestToken(ContainerId(n)).ok());
  }
  sim_.RunUntil(Seconds(60));
  EXPECT_NEAR(backend_->UsageOf(ContainerId("a")), 0.3, 0.05);
  EXPECT_NEAR(backend_->UsageOf(ContainerId("b")), 0.4, 0.05);
  EXPECT_NEAR(backend_->UsageOf(ContainerId("c")), 0.3, 0.05);
}

TEST_F(TokenBackendTest, UnregisterReleasesHeldToken) {
  FakeClient* a = AddContainer("a", 0.3, 1.0);
  FakeClient* b = AddContainer("b", 0.3, 1.0);
  (void)a;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  ASSERT_TRUE(backend_->RequestToken(ContainerId("b")).ok());
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(backend_->HolderOf(dev_), ContainerId("a"));
  ASSERT_TRUE(backend_->UnregisterContainer(ContainerId("a")).ok());
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(backend_->HolderOf(dev_), ContainerId("b"));
  EXPECT_GE(b->grants, 1);
}

TEST_F(TokenBackendTest, QueueLengthReflectsWaiters) {
  AddContainer("a", 0.3, 1.0);
  AddContainer("b", 0.3, 1.0);
  AddContainer("c", 0.3, 1.0);
  for (const char* n : {"a", "b", "c"}) {
    ASSERT_TRUE(backend_->RequestToken(ContainerId(n)).ok());
  }
  sim_.RunUntil(Millis(5));
  // One got the token; two remain queued.
  EXPECT_EQ(backend_->QueueLength(dev_), 2u);
}

TEST_F(TokenBackendTest, DuplicateRequestIsIdempotent) {
  AddContainer("a", 0.3, 1.0);
  AddContainer("b", 0.3, 1.0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(backend_->RequestToken(ContainerId("b")).ok());
  }
  EXPECT_EQ(backend_->QueueLength(dev_), 0u);  // b was granted directly
  sim_.RunUntil(Millis(5));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  }
  EXPECT_EQ(backend_->QueueLength(dev_), 1u);
}

TEST_F(TokenBackendTest, IndependentDevicesDoNotInterfere) {
  GpuUuid dev2("GPU-1");
  backend_->RegisterDevice(dev2);
  FakeClient* a = AddContainer("a", 0.3, 1.0);
  auto client_b = std::make_unique<FakeClient>(&sim_, backend_.get(),
                                               ContainerId("b"));
  ResourceSpec spec;
  spec.gpu_request = 0.3;
  ASSERT_TRUE(backend_
                  ->RegisterContainer(ContainerId("b"), dev2, spec,
                                      client_b.get())
                  .ok());
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  ASSERT_TRUE(backend_->RequestToken(ContainerId("b")).ok());
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(backend_->HolderOf(dev_), ContainerId("a"));
  EXPECT_EQ(backend_->HolderOf(dev2), ContainerId("b"));
  EXPECT_GE(a->grants, 1);
  EXPECT_GE(client_b->grants, 1);
}

TEST_F(TokenBackendTest, StatsTrackGrantsAndHoldTime) {
  FakeClient* c = AddContainer("c1", 0.3, 1.0);
  (void)c;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  sim_.RunUntil(Seconds(1));
  const auto stats = backend_->StatsOf(ContainerId("c1"));
  EXPECT_GE(stats.grants, 9u);
  // Held nearly the whole second (modulo exchange gaps), no overrun (the
  // fake releases exactly at expiry).
  EXPECT_GE(stats.held_total, Millis(900));
  EXPECT_LE(stats.held_total, Seconds(1));
  EXPECT_EQ(stats.overrun_total, Duration{0});
  EXPECT_EQ(backend_->StatsOf(ContainerId("ghost")).grants, 0u);
}

TEST_F(TokenBackendTest, ExtendQuotaPostponesExpiry) {
  FakeClient* c = AddContainer("c1", 0.3, 1.0);
  c->rerequest = false;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  sim_.RunUntil(Millis(10));  // granted, quota ends at ~101.5ms
  ASSERT_TRUE(backend_->ExtendQuota(ContainerId("c1"), Millis(100)).ok());
  sim_.RunUntil(Millis(150));
  EXPECT_EQ(c->expiries, 0);  // old deadline passed without expiry
  sim_.RunUntil(Millis(250));
  EXPECT_EQ(c->expiries, 1);  // extended deadline fired
}

TEST_F(TokenBackendTest, ExtendQuotaRequiresValidHolder) {
  AddContainer("c1", 0.3, 1.0);
  EXPECT_EQ(backend_->ExtendQuota(ContainerId("c1"), Millis(10)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(backend_->ExtendQuota(ContainerId("ghost"), Millis(10)).code(),
            StatusCode::kNotFound);
  // Zero/negative extensions are harmless no-ops for a valid holder.
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  sim_.RunUntil(Millis(10));
  EXPECT_TRUE(backend_->ExtendQuota(ContainerId("c1"), Duration{0}).ok());
}

TEST_F(TokenBackendTest, UnregisterDuringExchangeIsSafe) {
  FakeClient* a = AddContainer("a", 0.3, 1.0);
  FakeClient* b = AddContainer("b", 0.3, 1.0);
  (void)a;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  // "a" is mid-exchange (grant event scheduled, not yet fired).
  ASSERT_TRUE(backend_->UnregisterContainer(ContainerId("a")).ok());
  ASSERT_TRUE(backend_->RequestToken(ContainerId("b")).ok());
  sim_.RunUntil(Millis(20));
  // The orphaned grant event must not crash, and b must get the token.
  EXPECT_EQ(backend_->HolderOf(dev_), ContainerId("b"));
  EXPECT_GE(b->grants, 1);
}

TEST_F(TokenBackendTest, ReRegisteredContainerIgnoresStaleHandOff) {
  // A hand-off belongs to the hold that scheduled it. The first
  // registration's grant is due at 1.5 ms; the container leaves at 0.5 ms
  // and comes back under the same id at 0.6 ms, so its new grant is due at
  // 2.1 ms and the old hand-off must not complete it early.
  FakeClient* first = AddContainer("a", 0.3, 1.0);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Micros(500));
  ASSERT_TRUE(backend_->UnregisterContainer(ContainerId("a")).ok());
  sim_.RunUntil(Micros(600));
  FakeClient* second = AddContainer("a", 0.3, 1.0);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());

  sim_.RunUntil(Micros(2000));
  EXPECT_EQ(second->grants, 0);
  sim_.RunUntil(Millis(3));
  EXPECT_EQ(first->grants, 0);
  EXPECT_EQ(second->grants, 1);
  EXPECT_EQ(second->last_expiry, Micros(2100) + Millis(100));
  EXPECT_EQ(backend_->StatsOf(ContainerId("a")).grants, 1u);
  EXPECT_EQ(backend_->grants(), 2u);  // both decisions were made
}

TEST_F(TokenBackendTest, TimersOfAnEndedRegistrationLeaveItsSuccessorAlone) {
  // Each registration of "a" leaves with a timer still owed to it, and the
  // next one comes back at once under the same id (recycling the record):
  // the first leaves at 0.5 ms before its hand-off at 1.5 ms, the second
  // (granted at 2.0 ms) leaves at 50 ms before its expiry at 102 ms.
  FakeClient* first = AddContainer("a", 0.3, 1.0);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Micros(500));
  ASSERT_TRUE(backend_->UnregisterContainer(ContainerId("a")).ok());
  FakeClient* second = AddContainer("a", 0.3, 1.0);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Micros(1900));
  EXPECT_EQ(second->grants, 0);
  sim_.RunUntil(Millis(50));
  EXPECT_EQ(second->grants, 1);
  EXPECT_EQ(second->last_expiry, Millis(102));
  ASSERT_TRUE(backend_->UnregisterContainer(ContainerId("a")).ok());
  FakeClient* third = AddContainer("a", 0.3, 1.0);
  third->rerequest = false;
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Millis(120));
  EXPECT_EQ(third->grants, 1);
  EXPECT_EQ(third->expiries, 0);
  sim_.RunUntil(Millis(200));
  EXPECT_EQ(third->last_expiry, Micros(151500));
  EXPECT_EQ(third->expiries, 1);
  EXPECT_EQ(first->grants + first->expiries + second->expiries, 0);
  EXPECT_EQ(backend_->StatsOf(ContainerId("a")).grants, 1u);
}

/// Reaches the daemon by handle, as FrontendHook does: when the daemon
/// comes back it re-resolves its handle and asks for the token again.
class HandleClient : public TokenClient {
 public:
  HandleClient(TokenBackend* backend, ContainerId id)
      : backend_(backend), id_(std::move(id)) {}

  void OnTokenGranted(Time /*expiry*/) override { ++grants; }
  void OnTokenExpired() override { (void)backend_->ReleaseToken(handle); }
  void OnBackendRestart() override {
    stale_answer = backend_->RequestToken(handle).code();
    handle = backend_->HandleOf(id_);
    (void)backend_->RequestToken(handle);
  }

  TokenBackend* backend_;
  ContainerId id_;
  TokenBackend::Handle handle;
  int grants = 0;
  StatusCode stale_answer = StatusCode::kOk;
};

TEST_F(TokenBackendTest, HandleAnswersNotFoundAfterRestartUntilReResolved) {
  HandleClient client(backend_.get(), ContainerId("c1"));
  auto registered = backend_->RegisterContainer(ContainerId("c1"), dev_,
                                                ResourceSpec{}, &client);
  ASSERT_TRUE(registered.ok());
  client.handle = *registered;
  const TokenBackend::Handle old = client.handle;
  ASSERT_TRUE(backend_->RequestToken(old).ok());
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(client.grants, 1);
  backend_->Restart();
  EXPECT_EQ(backend_->ReleaseToken(old).code(), StatusCode::kNotFound);
  EXPECT_EQ(backend_->RequestToken(old).code(), StatusCode::kNotFound);
  sim_.RunUntil(Millis(70));  // back after the 50 ms downtime
  ASSERT_FALSE(backend_->down());
  EXPECT_EQ(client.stale_answer, StatusCode::kNotFound);
  EXPECT_EQ(backend_->RequestToken(old).code(), StatusCode::kNotFound);
  EXPECT_EQ(client.grants, 2);  // through the re-resolved handle
  EXPECT_EQ(backend_->HolderOf(dev_), ContainerId("c1"));
  EXPECT_EQ(backend_->RequestToken(TokenBackend::Handle{}).code(),
            StatusCode::kNotFound);
}

TEST_F(TokenBackendTest, ResizeDuringRestartDowntimeIsKept) {
  // Restart() parks every container for restart_downtime. A resize that
  // lands in that window is the spec the container comes back with.
  AddContainer("c1", 0.0, 1.0);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("c1")).ok());
  sim_.RunUntil(Seconds(1));
  backend_->Restart();
  ASSERT_TRUE(backend_->down());
  ResourceSpec resized;
  resized.gpu_limit = 0.2;
  EXPECT_TRUE(backend_->UpdateSpec(ContainerId("c1"), resized).ok());
  EXPECT_EQ(backend_->UpdateSpec(ContainerId("ghost"), resized).code(),
            StatusCode::kNotFound);
  sim_.RunUntil(Seconds(13));
  ASSERT_FALSE(backend_->down());
  EXPECT_NEAR(backend_->UsageOf(ContainerId("c1")), 0.2, 0.01);
}

TEST_F(TokenBackendTest, GrantsCounterAdvances) {
  AddContainer("a", 0.3, 1.0);
  ASSERT_TRUE(backend_->RequestToken(ContainerId("a")).ok());
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(backend_->grants(), static_cast<std::uint64_t>(clients_[0]->grants));
}

// Regression: unregistering the last queued container between a reeval's
// scheduling and its fire must cancel the pending timer, not leave it
// dangling. A limit-throttled lone requester is exactly that state: the
// token is free, the queue holds one filtered container, the reeval timer
// is armed.
TEST(DanglingReevalRegression, CancelsReevalOnLastUnregister) {
  sim::Simulation sim;
  TokenBackend backend(&sim);
  const GpuUuid gpu("GPU-RV");
  backend.RegisterDevice(gpu);
  ResourceSpec spec;
  spec.gpu_request = 0.005;
  spec.gpu_limit = 0.005;  // one 100 ms hold in a 10 s window exceeds this
  FakeClient client(&sim, &backend, ContainerId("rv"));
  ASSERT_TRUE(
      backend.RegisterContainer(ContainerId("rv"), gpu, spec, &client).ok());
  ASSERT_TRUE(backend.RequestToken(ContainerId("rv")).ok());
  // The first hold runs a full quota, pushing usage past the limit; the
  // greedy re-request then parks in the queue behind the reeval timer.
  sim.RunUntil(Millis(300));
  ASSERT_EQ(backend.QueueLength(gpu), 1u);
  ASSERT_FALSE(backend.HolderOf(gpu).has_value());
  ASSERT_EQ(backend.pending_timers(), 1u);  // the armed reeval

  ASSERT_TRUE(backend.UnregisterContainer(ContainerId("rv")).ok());
  EXPECT_EQ(backend.QueueLength(gpu), 0u);
  EXPECT_EQ(backend.pending_timers(), 0u)
      << "reeval timer left dangling after the last waiter unregistered";
  EXPECT_EQ(sim.pending(), 0u);  // the engine holds nothing for the daemon
}

// --- SLO admission control ---------------------------------------------

/// The daemon door for a 100 ms p99 SLO at 90% headroom: AdmitRequest
/// sheds once the windowed p99 reaches 90 ms.
class AdmissionTest : public ::testing::Test {
 protected:
  using Digest = metrics::LatencyDigest;

  AdmissionTest() {
    cfg_.admission.enabled = true;
    cfg_.admission.headroom = 0.9;
    cfg_.admission.window = Seconds(5.0);
    cfg_.admission.min_samples = 20;
  }

  /// A fresh daemon built from cfg_, and its serving handle for `slo`.
  TokenBackend::ServingState* Serve(Duration slo = Millis(100)) {
    backend_ = std::make_unique<TokenBackend>(&sim_, cfg_);
    return backend_->SetServiceSlo(ContainerId("svc-0"), slo);
  }

  void Report(TokenBackend::ServingState* serving, int n, Duration latency,
              Time now = Seconds(1.0)) {
    for (int i = 0; i < n; ++i) {
      backend_->ReportRequestLatency(serving, now, latency);
    }
  }

  AdmissionDecision Admit(TokenBackend::ServingState* serving,
                          Time now = Seconds(1.0)) {
    return backend_->AdmitRequest(serving, now);
  }

  static Duration EdgeOf(int bucket) {
    return Duration{static_cast<std::int64_t>(Digest::LowerEdge(bucket))};
  }

  sim::Simulation sim_;
  BackendConfig cfg_;
  std::unique_ptr<TokenBackend> backend_;
};

TEST_F(AdmissionTest, ThresholdBucketShedsAndTheOneBelowAdmits) {
  // Observed p99 is a bucket's lower edge. 90 ms falls inside a bucket
  // whose edge, 88.064 ms, is under the threshold; the next bucket, from
  // 90.112 ms, is the first whose edge is not.
  const int below = Digest::IndexFor(90'000);
  ASSERT_LT(EdgeOf(below), Micros(90'000));
  ASSERT_GT(EdgeOf(below + 1), Micros(90'000));

  TokenBackend::ServingState* s = Serve();
  ASSERT_NE(s, nullptr);
  Report(s, 100, EdgeOf(below + 1) - Micros(1));  // top of the lower bucket
  EXPECT_EQ(Admit(s), AdmissionDecision::kAdmit);

  s = Serve();
  Report(s, 100, EdgeOf(below + 1));
  EXPECT_EQ(Admit(s), AdmissionDecision::kShed);
  EXPECT_EQ(backend_->admission_sheds(), 1u);
  EXPECT_EQ(backend_->admission_queued(), 0u);
}

TEST_F(AdmissionTest, ShedsExactlyWhenTheP99SampleIsSlow) {
  TokenBackend::ServingState* s = Serve();
  Report(s, 99, Millis(10));
  Report(s, 1, Millis(500));
  // 1 slow of 100: p99 is the 99th smallest sample, a fast one.
  EXPECT_EQ(Admit(s), AdmissionDecision::kAdmit);
  Report(s, 1, Millis(500));
  // 2 slow of 101: p99 is the 100th smallest, a slow one.
  EXPECT_EQ(Admit(s), AdmissionDecision::kShed);
}

TEST_F(AdmissionTest, ColdStartAdmitsBelowMinSamples) {
  TokenBackend::ServingState* s = Serve();
  Report(s, 19, Seconds(1.0));
  EXPECT_EQ(Admit(s), AdmissionDecision::kAdmit);
  Report(s, 1, Seconds(1.0));
  EXPECT_EQ(Admit(s), AdmissionDecision::kShed);
}

TEST_F(AdmissionTest, EmptyWindowWithoutMinSamples) {
  cfg_.admission.min_samples = 0;
  // An empty window's p99 reads 0, under any positive threshold.
  EXPECT_EQ(Admit(Serve(), Time{0}), AdmissionDecision::kAdmit);
  // With no headroom the threshold is 0 itself, and 0 is not under it.
  cfg_.admission.headroom = 0.0;
  EXPECT_EQ(Admit(Serve(), Time{0}), AdmissionDecision::kShed);
}

TEST_F(AdmissionTest, QueuePolicyHoldsAndCounts) {
  cfg_.admission.policy = AdmissionConfig::Policy::kQueue;
  TokenBackend::ServingState* s = Serve();
  Report(s, 20, Millis(500));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(Admit(s), AdmissionDecision::kQueue);
  EXPECT_EQ(backend_->admission_queued(), 3u);
  EXPECT_EQ(backend_->admission_sheds(), 0u);
}

TEST_F(AdmissionTest, NewSloAppliesToTheSamplesAlreadyHeld) {
  TokenBackend::ServingState* s = Serve(Millis(100));
  Report(s, 50, Millis(50));
  EXPECT_EQ(Admit(s), AdmissionDecision::kAdmit);
  // A tighter SLO (threshold 45 ms) keeps the handle and the history.
  EXPECT_EQ(backend_->SetServiceSlo(ContainerId("svc-0"), Millis(50)), s);
  EXPECT_EQ(Admit(s), AdmissionDecision::kShed);
  EXPECT_EQ(backend_->SetServiceSlo(ContainerId("svc-0"), Millis(100)), s);
  EXPECT_EQ(Admit(s), AdmissionDecision::kAdmit);
}

TEST_F(AdmissionTest, WindowForgetsOldEpochs) {
  TokenBackend::ServingState* s = Serve();
  Report(s, 20, Millis(500), Seconds(1.0));
  EXPECT_EQ(Admit(s, Seconds(1.0)), AdmissionDecision::kShed);
  // One rotation later the slow epoch is the previous one and still counts.
  EXPECT_EQ(Admit(s, Seconds(6.0)), AdmissionDecision::kShed);
  // Another rotation ages it out; fast traffic then admits.
  Report(s, 20, Millis(10), Seconds(11.0));
  EXPECT_EQ(Admit(s, Seconds(11.0)), AdmissionDecision::kAdmit);
}

TEST_F(AdmissionTest, RestartKeepsTheLatencyHistory) {
  TokenBackend::ServingState* s = Serve();
  Report(s, 20, Millis(500));
  backend_->Restart();
  ASSERT_TRUE(backend_->down());
  EXPECT_EQ(Admit(s), AdmissionDecision::kShed);
  sim_.Run();  // the daemon comes back up
  ASSERT_FALSE(backend_->down());
  EXPECT_EQ(Admit(s), AdmissionDecision::kShed);
  EXPECT_EQ(backend_->admission_sheds(), 2u);
}

TEST_F(AdmissionTest, DisabledDaemonHandsOutNoHandle) {
  cfg_.admission.enabled = false;
  TokenBackend::ServingState* s = Serve();
  EXPECT_EQ(s, nullptr);
  Report(s, 20, Millis(500));
  EXPECT_EQ(Admit(s), AdmissionDecision::kAdmit);
  EXPECT_EQ(backend_->admission_sheds(), 0u);
}

}  // namespace
}  // namespace ks::vgpu
