// KubeShare-Sched's store-maintained counts against scans of the stores.
//
// A seeded churn plan (support/churn.hpp) submits, completes and deletes
// sharePods on a 3-node cluster. After each of its rounds the test also
// fails a running sharePod, submits affinity sharePods that Algorithm 1
// rejects, binds, finishes and deletes native GPU pods, crashes one node
// (NotReady) and recovers it, and crashes and restarts KubeShare-Sched.
// After every step, while the scheduler runs, live_sharepods() equals a
// count of the non-terminal sharePods in the store and FreePhysicalGpus()
// equals the scan below.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kubeshare/kubeshare.hpp"
#include "support/churn.hpp"
#include "workload/host.hpp"

namespace ks::kubeshare {
namespace {

std::int64_t ScanLive(const KubeShare& kubeshare) {
  std::int64_t live = 0;
  kubeshare.sharepods().ForEach(
      [&](const SharePod& sp) { live += sp.terminal() ? 0 : 1; });
  return live;
}

/// Free physical GPUs by scanning: each ready node's GPU capacity, minus
/// the GPUs of its scheduled, non-terminal pods without the KubeShare
/// label, minus the vGPUs the pool holds there. Rendered "node=free ...".
std::string ScanFree(k8s::Cluster& cluster, const VgpuPool& pool) {
  std::map<std::string, std::int64_t> native;
  cluster.api().pods().ForEach([&](const k8s::Pod& pod) {
    if (pod.terminal() || !pod.scheduled()) return;
    if (pod.meta.labels.count(kManagedLabel) > 0) return;
    native[pod.status.node_name] +=
        pod.spec.requests.Get(k8s::kResourceNvidiaGpu);
  });
  std::ostringstream out;
  cluster.api().nodes().ForEach([&](const k8s::Node& node) {
    if (!node.ready) return;
    out << node.meta.name << "="
        << node.capacity.Get(k8s::kResourceNvidiaGpu) -
               native[node.meta.name] -
               static_cast<std::int64_t>(pool.CountOnNode(node.meta.name))
        << " ";
  });
  return out.str();
}

std::string Render(const std::vector<NodeFreeGpus>& free) {
  std::ostringstream out;
  for (const NodeFreeGpus& n : free) out << n.node << "=" << n.free << " ";
  return out.str();
}

class SchedIndex : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static k8s::ClusterConfig Config() {
    k8s::ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.gpus_per_node = 4;
    return cfg;
  }

  SchedIndex() : cluster_(Config()), kubeshare_(&cluster_), host_(&cluster_) {
    EXPECT_TRUE(cluster_.Start().ok());
    EXPECT_TRUE(kubeshare_.Start().ok());
  }

  /// Compares the maintained counts with the scans; `step` names the
  /// step in a failure.
  void Check(const std::string& step) {
    ++checks_;
    KubeShareSched& sched = kubeshare_.sched();
    if (!sched.running()) {
      EXPECT_TRUE(sched.FreePhysicalGpus().empty()) << step;
      return;
    }
    EXPECT_EQ(sched.live_sharepods(), ScanLive(kubeshare_)) << step;
    EXPECT_EQ(Render(sched.FreePhysicalGpus()),
              ScanFree(cluster_, kubeshare_.pool()))
        << step;
    const k8s::Node* flipped = cluster_.api().nodes().Find("node-2");
    if (flipped != nullptr && !flipped->ready) saw_not_ready_ = true;
    kubeshare_.sharepods().ForEach(
        [&](const SharePod& sp) { phases_seen_.insert(sp.status.phase); });
  }

  /// A random name from `names` whose object `pick` accepts, or "".
  template <typename Pick>
  std::string Choose(const std::vector<std::string>& names, Pick pick) {
    std::vector<std::string> eligible;
    for (const std::string& name : names) {
      if (pick(name)) eligible.push_back(name);
    }
    if (eligible.empty()) return "";
    return eligible[static_cast<std::size_t>(rng_.UniformInt(
        0, static_cast<std::int64_t>(eligible.size()) - 1))];
  }

  std::vector<std::string> SharePodNames() {
    std::vector<std::string> names;
    kubeshare_.sharepods().ForEach(
        [&](const SharePod& sp) { names.push_back(sp.meta.name); });
    return names;
  }

  /// One round's extra steps, each followed by a check.
  void ExtraSteps(int round) {
    const std::string at = "round " + std::to_string(round) + ": ";
    if (rng_.Chance(0.2)) {
      // Fail a running sharePod: its workload container exits non-zero.
      const std::string victim = Choose(SharePodNames(), [&](auto& name) {
        const SharePod* sp = kubeshare_.sharepods().Find(name);
        return sp->status.phase == SharePodPhase::kRunning &&
               !sp->status.workload_pod.empty();
      });
      if (!victim.empty()) {
        const std::string pod =
            kubeshare_.sharepods().Find(victim)->status.workload_pod;
        (void)cluster_.ExitPodContainer(pod, /*success=*/false, "crash");
        Check(at + "fail " + victim);
      }
    }
    if (rng_.Chance(0.15)) {
      // Affinity sharePods at 0.7 must share one device: while one holds
      // it, every other is rejected (Algorithm 1 line 6).
      SharePod sp;
      sp.meta.name = "aff-" + std::to_string(affinity_++);
      sp.spec.gpu.gpu_request = 0.7;
      sp.spec.gpu.gpu_limit = 1.0;
      sp.spec.gpu.gpu_mem = 0.2;
      sp.spec.locality.affinity = Label("aff");
      EXPECT_TRUE(kubeshare_.CreateSharePod(sp).ok());
      Check(at + "submit " + sp.meta.name);
    }
    if (rng_.Chance(0.35)) {
      k8s::Pod pod;
      pod.meta.name = "native-" + std::to_string(natives_.size());
      pod.spec.requests.Set(k8s::kResourceNvidiaGpu, rng_.UniformInt(1, 2));
      pod.spec.node_selector["kubernetes.io/hostname"] =
          "node-" + std::to_string(rng_.UniformInt(0, 2));
      natives_.push_back(pod.meta.name);
      EXPECT_TRUE(cluster_.api().pods().Create(pod).ok());
      Check(at + "create " + pod.meta.name);
    }
    if (rng_.Chance(0.25)) {
      const std::string done = Choose(natives_, [&](auto& name) {
        const k8s::Pod* pod = cluster_.api().pods().Find(name);
        return pod != nullptr && pod->status.phase == k8s::PodPhase::kRunning;
      });
      if (!done.empty()) {
        ++natives_finished_;
        (void)cluster_.ExitPodContainer(done, /*success=*/true);
        Check(at + "finish " + done);
      }
    }
    if (rng_.Chance(0.2)) {
      const std::string gone = Choose(natives_, [&](auto& name) {
        return cluster_.api().pods().Contains(name);
      });
      if (!gone.empty()) {
        EXPECT_TRUE(cluster_.api().pods().Delete(gone).ok());
        Check(at + "delete " + gone);
      }
    }
    if (round == 20) {
      ASSERT_TRUE(cluster_.CrashNode("node-2").ok());
    }
    if (round == 32) {
      ASSERT_TRUE(cluster_.RecoverNode("node-2").ok());
    }
    if (round == 26) kubeshare_.sched().Crash();
    if (round == 30) {
      ASSERT_TRUE(kubeshare_.sched().Restart().ok());
    }
    Check(at + "faults");
  }

  k8s::Cluster cluster_;
  KubeShare kubeshare_;
  workload::WorkloadHost host_;
  Rng rng_{GetParam() * 7919 + 1};
  std::vector<std::string> natives_;
  int affinity_ = 0;
  int natives_finished_ = 0;
  int checks_ = 0;
  bool saw_not_ready_ = false;
  std::set<SharePodPhase> phases_seen_;
};

TEST_P(SchedIndex, MaintainedCountsEqualStoreScans) {
  churn::ChurnOptions options;
  options.rounds = 60;
  churn::ChurnPlan plan(GetParam(), &cluster_, &kubeshare_, &host_, options);
  int round = 0;
  plan.SetBeforeDelete([&](const std::string& name) {
    // The plan deletes right after this returns: check the state it sees.
    Check("round " + std::to_string(round) + ": before deleting " + name);
  });
  Check("start");
  plan.Run([&] {
    Check("round " + std::to_string(round));
    ExtraSteps(round++);
  });
  plan.DeleteSurvivors();
  Check("survivors deleted");
  cluster_.sim().RunUntil(cluster_.sim().Now() + Seconds(30));
  Check("drained");

  // The run covered what it claims to: every way a sharePod ends, native
  // pods finishing, the NotReady node, and one scheduler crash.
  const KubeShareSched& sched = kubeshare_.sched();
  EXPECT_GT(sched.scheduled_count(), 0u);
  EXPECT_GT(sched.rejected_count(), 0u);
  for (SharePodPhase phase : {SharePodPhase::kSucceeded,
                              SharePodPhase::kFailed,
                              SharePodPhase::kRejected}) {
    EXPECT_EQ(phases_seen_.count(phase), 1u) << SharePodPhaseName(phase);
  }
  EXPECT_GT(natives_finished_, 0);
  EXPECT_TRUE(saw_not_ready_);
  EXPECT_TRUE(cluster_.api().nodes().Find("node-2")->ready);
  EXPECT_EQ(sched.crashes(), 1u);
  EXPECT_TRUE(sched.running());
  EXPECT_GT(sched.snapshot_hits(), 0u);
  EXPECT_GT(sched.snapshot_refreshes(), 1u);
  EXPECT_GT(checks_, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedIndex, ::testing::Values(3, 17, 41),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ks::kubeshare
