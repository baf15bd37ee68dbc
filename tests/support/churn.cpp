#include "support/churn.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/job.hpp"

namespace ks::churn {

ChurnPlan::ChurnPlan(std::uint64_t seed, k8s::Cluster* cluster,
                     kubeshare::KubeShare* kubeshare,
                     workload::WorkloadHost* host, ChurnOptions options)
    : rng_(seed),
      cluster_(cluster),
      kubeshare_(kubeshare),
      host_(host),
      options_(options) {}

void ChurnPlan::Run(const std::function<void()>& after_round) {
  for (int round = 0; round < options_.rounds; ++round) {
    if (live_.size() < options_.max_live && rng_.Chance(0.7)) Submit();
    if (!live_.empty() && rng_.Chance(0.3)) {
      const auto idx = static_cast<std::size_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(live_.size()) - 1));
      Delete(live_[idx]);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    cluster_->sim().RunUntil(
        cluster_->sim().Now() +
        Millis(rng_.UniformInt(options_.min_gap_ms, options_.max_gap_ms)));
    if (after_round) after_round();
  }
}

void ChurnPlan::DeleteSurvivors() {
  for (const std::string& name : live_) Delete(name);
  live_.clear();
}

void ChurnPlan::Submit() {
  const std::string name = "churn-" + std::to_string(submitted_.size());
  kubeshare::SharePod sp;
  sp.meta.name = name;
  sp.spec.gpu.gpu_request = rng_.Uniform(0.1, 0.6);
  sp.spec.gpu.gpu_limit =
      std::min(1.0, sp.spec.gpu.gpu_request + rng_.Uniform(0.0, 0.4));
  sp.spec.gpu.gpu_mem = rng_.Uniform(0.1, 0.4);
  sp.spec.priority = static_cast<int>(rng_.UniformInt(0, 3));
  if (rng_.Chance(0.2)) {
    sp.spec.locality.anti_affinity =
        Label("anti-" + std::to_string(rng_.UniformInt(0, 1)));
  }
  if (rng_.Chance(0.1)) {
    sp.spec.locality.exclusion =
        Label("excl-" + std::to_string(rng_.UniformInt(0, 1)));
  }
  if (rng_.Chance(0.5)) {
    workload::InferenceSpec spec = workload::InferenceSpec::ForDemand(
        rng_.Uniform(0.1, 0.5), static_cast<int>(rng_.UniformInt(50, 400)),
        Millis(20));
    spec.seed = rng_.UniformInt(1, 1 << 20);
    host_->ExpectJob(name, [spec] {
      return std::make_unique<workload::InferenceJob>(spec);
    });
  } else {
    workload::TrainingSpec spec;
    spec.steps = static_cast<int>(rng_.UniformInt(100, 2000));
    spec.step_kernel = Millis(10);
    spec.model_bytes = 1ull << 30;
    host_->ExpectJob(name, [spec] {
      return std::make_unique<workload::TrainingJob>(spec);
    });
  }
  EXPECT_TRUE(kubeshare_->CreateSharePod(sp).ok()) << name;
  live_.push_back(name);
  submitted_.push_back(name);
}

void ChurnPlan::Delete(const std::string& name) {
  if (before_delete_) before_delete_(name);
  (void)kubeshare_->sharepods().Delete(name);
}

}  // namespace ks::churn
