// Golden-trace pins for the per-node token daemon.
//
// The recorded traces in tests/golden/token_daemon.golden come from the
// daemon's two retired implementations, and it must keep reproducing them
// byte for byte. The exceptions are the 17 churn plans whose resize lands
// while the daemon is down across a restart: a parked container used to
// come back with its old spec, and since UpdateSpec resizes the parked
// entry those plans are recorded from the daemon itself (the golden
// file's header lists them). The runs are:
//   - seeded churn plans (registrations, unregistrations, spec resizes and
//     daemon restarts) replayed against a lone daemon — grant trace,
//     sliding-window usage probes, final per-container stats, grant count
//     and, from the one-event-per-deadline oracle, the engine-event count;
//     the slice-claim and enforcement variants the oracle lacked come from
//     the timer-wheel daemon at an exact 1 us tick;
//   - whole-cluster KubeShare runs (inference, training, across a
//     token-daemon restart and a DevMgr crash) from the oracle — kernel,
//     NVML and token traces plus completions and engine-event count.
// Each trace is stored as its line count and FNV-1a digest
// (tests/support/golden.hpp has the digest, the collector and how to
// re-record).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulation.hpp"
#include "support/golden.hpp"
#include "vgpu/token_backend.hpp"
#include "workload/generator.hpp"

namespace ks::vgpu {
namespace {

constexpr const char* kGoldenFile = "token_daemon.golden";
constexpr const char* kGoldenHeader =
    "# Token-daemon golden traces: <run> <line counts + FNV-1a digests>.\n"
    "# churn/seed* and cluster/* were recorded from the one-event-per-\n"
    "# deadline daemon, churn/sliced_* and churn/enforced_* from the\n"
    "# timer-wheel daemon at an exact 1 us tick; see\n"
    "# tests/vgpu/token_golden_test.cpp for how each run is built.\n"
    "# Re-recorded from TokenBackend once UpdateSpec kept a resize that\n"
    "# lands while the daemon is down across a restart (the parked\n"
    "# container used to come back with its old spec): the plans with such\n"
    "# a resize, churn/seed{3106,4139,6205,7238,9304,12403,13436,18601,\n"
    "# 19634,20667,21700,24799}, churn/sliced_seed{4139,6205,7238} and\n"
    "# churn/enforced_seed{4139,6205}.\n";

void ExpectGolden(const std::string& key, const std::string& actual) {
  golden::ExpectGolden(kGoldenFile, kGoldenHeader, key, actual);
}

// ---------------------------------------------------------------------------
// Churn plan against a lone daemon.

/// kTemporal is the paper's daemon; the other two turn on the features
/// the one-event-per-deadline oracle never had: slice claims with spatial
/// sharing, and isolation enforcement with tenants that overstay.
enum class Variant { kTemporal, kSliced, kEnforced };

struct ChurnOp {
  enum Kind { kRegister, kUnregister, kUpdateSpec, kRestart };
  Time at{0};
  Kind kind = kRegister;
  std::string name;       // container (empty for kRestart)
  ResourceSpec spec;      // for kRegister / kUpdateSpec
  bool stubborn = false;  // kRegister under kEnforced: overstays expiries
};

struct ChurnPlan {
  std::vector<ChurnOp> ops;
  Time horizon{0};
};

ResourceSpec RandomSpec(Rng& rng, Variant variant) {
  ResourceSpec spec;
  spec.gpu_request = rng.Uniform(0.05, 0.3);
  spec.gpu_limit = std::min(1.0, spec.gpu_request + rng.Uniform(0.05, 0.5));
  if (variant == Variant::kSliced) {
    spec.slice_groups = static_cast<int>(rng.UniformInt(0, 4));
  }
  return spec;
}

ChurnPlan MakePlan(std::uint64_t seed, Variant variant) {
  Rng rng(seed);
  ChurnPlan plan;
  std::vector<std::string> live;
  int next_id = 0;
  Time t = Millis(1);
  const int ops = static_cast<int>(rng.UniformInt(30, 50));
  for (int i = 0; i < ops; ++i) {
    t = t + Millis(rng.UniformInt(1, 80));
    ChurnOp op;
    op.at = t;
    const double roll = rng.Uniform(0.0, 1.0);
    if (live.size() < 2 || (live.size() < 7 && roll < 0.45)) {
      op.kind = ChurnOp::kRegister;
      op.name = "c" + std::to_string(next_id++);
      op.spec = RandomSpec(rng, variant);
      op.stubborn = variant == Variant::kEnforced && rng.Chance(0.4);
      live.push_back(op.name);
    } else if (roll < 0.65) {
      op.kind = ChurnOp::kUnregister;
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      op.name = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (roll < 0.9) {
      op.kind = ChurnOp::kUpdateSpec;
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      op.name = live[idx];
      op.spec = RandomSpec(rng, variant);
    } else {
      op.kind = ChurnOp::kRestart;
    }
    plan.ops.push_back(op);
  }
  plan.horizon = t + Seconds(1.5);
  return plan;
}

/// How the driver and its clients name a container to the daemon: by id,
/// or by the handle registration returned (re-resolved after a restart),
/// as FrontendHook does.
enum class Calls { kById, kByHandle };

/// Greedy client: always wants the token. A polite one releases the
/// moment its quota expires and never originates its own timing, so the
/// run's timeline is a pure function of plan + daemon. A stubborn one
/// holds on past the overstay fence (at an odd microsecond offset, so its
/// release never ties with a daemon deadline).
class GreedyClient : public TokenClient {
 public:
  GreedyClient(sim::Simulation* sim, TokenBackend* backend, ContainerId id,
               bool stubborn, golden::TraceDigest* trace, Calls calls)
      : sim_(sim),
        backend_(backend),
        id_(std::move(id)),
        stubborn_(stubborn),
        trace_(trace),
        calls_(calls) {}

  void OnTokenGranted(Time expiry) override {
    trace_->Add("grant " + id_.value() + " exp=" +
                std::to_string(expiry.count()));
  }
  void OnTokenExpired() override {
    if (!stubborn_) {
      ReleaseAndRequest();
      return;
    }
    sim_->ScheduleAfter(Millis(60) + Micros(7), [this] {
      if (live_) ReleaseAndRequest();
    });
  }
  void OnBackendRestart() override {
    handle_ = backend_->HandleOf(id_);
    if (live_) Request();
  }
  void MarkDead() { live_ = false; }
  void SetHandle(TokenBackend::Handle handle) { handle_ = handle; }
  void Request() {
    (void)(calls_ == Calls::kById ? backend_->RequestToken(id_)
                                  : backend_->RequestToken(handle_));
  }

 private:
  void ReleaseAndRequest() {
    (void)(calls_ == Calls::kById ? backend_->ReleaseToken(id_)
                                  : backend_->ReleaseToken(handle_));
    if (live_) Request();
  }

  sim::Simulation* sim_;
  TokenBackend* backend_;
  ContainerId id_;
  bool stubborn_;
  golden::TraceDigest* trace_;
  Calls calls_;
  TokenBackend::Handle handle_;
  bool live_ = true;
};

std::string RunChurnPlan(const ChurnPlan& plan, Variant variant,
                         Calls calls = Calls::kById) {
  sim::Simulation sim;
  BackendConfig cfg;
  cfg.spatial_enabled = variant == Variant::kSliced;
  cfg.enforcement.enabled = variant == Variant::kEnforced;
  auto backend = std::make_unique<TokenBackend>(&sim, cfg);
  const GpuUuid gpu("GPU-EQ");
  backend->RegisterDevice(gpu);

  golden::TraceDigest trace;
  if (variant != Variant::kTemporal) {
    // The feature runs also fold in the daemon's own transitions
    // (concurrent holds, fences).
    backend->SetGrantTraceFn(
        [&](const char* what, const ContainerId& c, Time when) {
          trace.Add(std::string(what) + " " + c.value() + " " +
                    std::to_string(when.count()));
        });
  }
  std::uint64_t violations = 0;
  std::map<std::string, std::pair<std::unique_ptr<GreedyClient>, ResourceSpec>>
      registered;  // name-sorted: probe order is deterministic
  // Unregistered clients stay alive: a stubborn one may still have its
  // delayed release pending.
  std::vector<std::unique_ptr<GreedyClient>> retired;

  // Driver ops and probes are pre-scheduled, so they carry the lowest
  // insertion seqs and fire ahead of any same-instant daemon event.
  for (const ChurnOp& op : plan.ops) {
    sim.ScheduleAt(op.at, [&, op] {
      const ContainerId id(op.name);
      switch (op.kind) {
        case ChurnOp::kRegister: {
          auto client = std::make_unique<GreedyClient>(
              &sim, backend.get(), id, op.stubborn, &trace, calls);
          const auto handle =
              backend->RegisterContainer(id, gpu, op.spec, client.get());
          trace.Add("register " + op.name + " " +
                    handle.status().ToString());
          if (handle.ok()) {
            client->SetHandle(*handle);
            client->Request();
            registered[op.name] = {std::move(client), op.spec};
          }
          break;
        }
        case ChurnOp::kUnregister: {
          auto it = registered.find(op.name);
          if (it == registered.end()) break;
          it->second.first->MarkDead();
          trace.Add("unregister " + op.name + " " +
                    backend->UnregisterContainer(id).ToString());
          retired.push_back(std::move(it->second.first));
          registered.erase(it);
          break;
        }
        case ChurnOp::kUpdateSpec: {
          auto it = registered.find(op.name);
          if (it == registered.end()) break;
          const Status st = backend->UpdateSpec(id, op.spec);
          trace.Add("resize " + op.name + " " + st.ToString());
          if (st.ok()) it->second.second = op.spec;
          break;
        }
        case ChurnOp::kRestart:
          backend->Restart();
          trace.Add("restart");
          // The come-back deadline is armed inside Restart() itself.
          EXPECT_GT(backend->pending_timers(), 0u);
          break;
      }
    });
  }
  for (Time probe = Millis(100); probe <= plan.horizon;
       probe = probe + Millis(100)) {
    sim.ScheduleAt(probe, [&] {
      for (const auto& [name, entry] : registered) {
        const double usage = backend->UsageOf(ContainerId(name));
        std::ostringstream line;
        line << "probe t=" << sim.Now().count() << " " << name
             << " usage=" << usage;
        trace.Add(line.str());
        if (usage > entry.second.gpu_limit + 1e-9) ++violations;
      }
    });
  }

  sim.RunUntil(plan.horizon);
  for (const auto& [name, entry] : registered) {
    const auto stats = backend->StatsOf(ContainerId(name));
    trace.Add("final " + name + " grants=" + std::to_string(stats.grants) +
              " held=" + std::to_string(stats.held_total.count()) +
              " overrun=" + std::to_string(stats.overrun_total.count()));
  }
  std::ostringstream out;
  out << "trace=" << trace.str() << " grants=" << backend->grants()
      << " violations=" << violations;
  if (variant == Variant::kTemporal) {
    out << " events=" << sim.lifetime_events();
  } else {
    // Recorded from a daemon that batched same-instant deadlines into one
    // engine event, so only its trace and counters carry over.
    out << " peak_holders=" << backend->peak_active_holders()
        << " ledger=" << backend->violations_total() << "/"
        << backend->clampdowns_total() << "/" << backend->evictions_total();
  }
  return out.str();
}

class TokenGolden : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenGolden, ChurnPlanMatchesRecordedTrace) {
  ExpectGolden("churn/seed" + std::to_string(GetParam()),
               RunChurnPlan(MakePlan(GetParam(), Variant::kTemporal),
                            Variant::kTemporal));
}

std::vector<std::uint64_t> ChurnSeeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 24; ++s) seeds.push_back(s * 1033 + 7);
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenGolden, ::testing::ValuesIn(ChurnSeeds()),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

TEST(TokenHandles, ChurnTracesEqualTheIdCalls) {
  for (const std::uint64_t seed : ChurnSeeds()) {
    for (const Variant variant :
         {Variant::kTemporal, Variant::kSliced, Variant::kEnforced}) {
      const ChurnPlan plan = MakePlan(seed, variant);
      EXPECT_EQ(RunChurnPlan(plan, variant, Calls::kByHandle),
                RunChurnPlan(plan, variant, Calls::kById))
          << "seed " << seed << " variant " << static_cast<int>(variant);
    }
  }
}

class TokenFeatureGolden
    : public ::testing::TestWithParam<std::pair<Variant, std::uint64_t>> {};

std::string FeatureKey(const std::pair<Variant, std::uint64_t>& param) {
  return std::string(param.first == Variant::kSliced ? "sliced" : "enforced") +
         "_seed" + std::to_string(param.second);
}

TEST_P(TokenFeatureGolden, ChurnPlanMatchesRecordedTrace) {
  const auto [variant, seed] = GetParam();
  ExpectGolden("churn/" + FeatureKey(GetParam()),
               RunChurnPlan(MakePlan(seed, variant), variant));
}

std::vector<std::pair<Variant, std::uint64_t>> FeatureParams() {
  std::vector<std::pair<Variant, std::uint64_t>> params;
  for (const Variant v : {Variant::kSliced, Variant::kEnforced}) {
    for (std::uint64_t s = 1; s <= 8; ++s) params.push_back({v, s * 1033 + 7});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TokenFeatureGolden, ::testing::ValuesIn(FeatureParams()),
    [](const ::testing::TestParamInfo<std::pair<Variant, std::uint64_t>>& i) {
      return FeatureKey(i.param);
    });

// ---------------------------------------------------------------------------
// Whole-cluster KubeShare runs.

TEST(TokenGolden, ClusterRunsMatchRecordedTraces) {
  using Kind = workload::WorkloadConfig::JobKind;
  using golden::FaultChoice;
  const struct {
    const char* key;
    std::uint64_t seed;
    Kind kind;
    FaultChoice fault;
  } runs[] = {
      {"inference-seed11", 11, Kind::kInference, FaultChoice::kNone},
      {"inference-seed12", 12, Kind::kInference, FaultChoice::kNone},
      {"inference-seed13", 13, Kind::kInference, FaultChoice::kNone},
      {"training-seed21", 21, Kind::kTraining, FaultChoice::kNone},
      {"training-seed22", 22, Kind::kTraining, FaultChoice::kNone},
      {"daemon-restart-seed31", 31, Kind::kInference,
       FaultChoice::kTokenDaemonRestart},
      {"daemon-restart-seed32", 32, Kind::kInference,
       FaultChoice::kTokenDaemonRestart},
      {"devmgr-crash-seed41", 41, Kind::kTraining, FaultChoice::kDevMgrCrash},
  };
  for (const auto& run : runs) {
    ExpectGolden(std::string("cluster/") + run.key,
                 golden::RunWorkloadCluster(run.seed, run.kind, run.fault));
  }
}

}  // namespace
}  // namespace ks::vgpu
