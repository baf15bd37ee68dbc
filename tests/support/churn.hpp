// Seeded sharePod churn shared by the churn stress test and the
// KubeShare-Sched queue golden: random submissions (mixed training and
// inference, priorities 0-3, random anti-affinity and exclusion labels)
// interleaved with random deletions of sharePods in whatever state they
// are in (queued, parked, acquiring, running or finished).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "workload/host.hpp"

namespace ks::churn {

/// The plan's shape; the defaults are the churn stress test's storm.
struct ChurnOptions {
  int rounds = 80;
  /// Submissions pause while this many sharePods are live.
  std::size_t max_live = 12;
  /// Each round advances the clock by a uniform gap in [min, max] ms.
  std::int64_t min_gap_ms = 200;
  std::int64_t max_gap_ms = 3000;
};

class ChurnPlan {
 public:
  /// The cluster and KubeShare must be started; `host` runs the jobs.
  ChurnPlan(std::uint64_t seed, k8s::Cluster* cluster,
            kubeshare::KubeShare* kubeshare, workload::WorkloadHost* host,
            ChurnOptions options = {});

  /// Plays every round: submit with probability 0.7 (while under
  /// max_live), delete a random live sharePod with probability 0.3, then
  /// advance the clock. `after_round`, when set, runs after each round's
  /// clock advance.
  void Run(const std::function<void()>& after_round = nullptr);

  /// Deletes every sharePod the plan still counts as live.
  void DeleteSurvivors();

  /// Called with a sharePod's name just before the plan deletes it.
  void SetBeforeDelete(std::function<void(const std::string&)> fn) {
    before_delete_ = std::move(fn);
  }

  /// Every sharePod the plan submitted, in submission order.
  const std::vector<std::string>& submitted() const { return submitted_; }

 private:
  void Submit();
  void Delete(const std::string& name);

  Rng rng_;
  k8s::Cluster* cluster_;
  kubeshare::KubeShare* kubeshare_;
  workload::WorkloadHost* host_;
  ChurnOptions options_;
  std::function<void(const std::string&)> before_delete_;
  std::vector<std::string> live_;
  std::vector<std::string> submitted_;
};

}  // namespace ks::churn
