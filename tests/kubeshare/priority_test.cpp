#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "kubeshare/kubeshare.hpp"

namespace ks::kubeshare {
namespace {

SharePod MakeSharePod(const std::string& name, double request, int priority) {
  SharePod sp;
  sp.meta.name = name;
  sp.spec.gpu.gpu_request = request;
  sp.spec.gpu.gpu_limit = 1.0;
  sp.spec.gpu.gpu_mem = 0.2;
  sp.spec.priority = priority;
  return sp;
}

class PriorityTest : public ::testing::Test {
 protected:
  static k8s::ClusterConfig Config() {
    k8s::ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.gpus_per_node = 1;
    return cfg;
  }

  PriorityTest() : cluster_(Config()), kubeshare_(&cluster_) {
    EXPECT_TRUE(cluster_.Start().ok());
    EXPECT_TRUE(kubeshare_.Start().ok());
  }

  k8s::Cluster cluster_;
  KubeShare kubeshare_;
};

TEST_F(PriorityTest, HigherPriorityLeavesQueueFirst) {
  // Three pending sharePods submitted back to back: the scheduler's first
  // cycle is busy with "low-1", so "high" and "low-2" sit in the queue
  // together — "high" must be picked next despite arriving later.
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("low-1", 0.3, 0)).ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("low-2", 0.3, 0)).ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("high", 0.3, 10)).ok());
  cluster_.sim().RunUntil(Seconds(5));
  auto low1 = kubeshare_.sharepods().Get("low-1");
  auto low2 = kubeshare_.sharepods().Get("low-2");
  auto high = kubeshare_.sharepods().Get("high");
  ASSERT_TRUE(low1->status.scheduled_time.has_value());
  ASSERT_TRUE(low2->status.scheduled_time.has_value());
  ASSERT_TRUE(high->status.scheduled_time.has_value());
  EXPECT_LT(*high->status.scheduled_time, *low2->status.scheduled_time);
}

TEST_F(PriorityTest, FifoAmongEqualPriorities) {
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("first", 0.2, 5)).ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("second", 0.2, 5)).ok());
  cluster_.sim().RunUntil(Seconds(5));
  EXPECT_LT(*kubeshare_.sharepods().Get("first")->status.scheduled_time,
            *kubeshare_.sharepods().Get("second")->status.scheduled_time);
}

TEST_F(PriorityTest, PriorityGetsCapacityWhenContended) {
  // Fill the single GPU, queue one low- and one high-priority waiter, then
  // free the capacity: the high-priority waiter must win the slot.
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("hog", 0.9, 0)).ok());
  cluster_.sim().RunUntil(Seconds(10));
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("low", 0.9, 0)).ok());
  ASSERT_TRUE(kubeshare_.CreateSharePod(MakeSharePod("high", 0.9, 10)).ok());
  cluster_.sim().RunUntil(Seconds(12));
  ASSERT_TRUE(kubeshare_.sharepods().Delete("hog").ok());
  cluster_.sim().RunUntil(Seconds(40));
  EXPECT_EQ(kubeshare_.sharepods().Get("high")->status.phase,
            SharePodPhase::kRunning);
  EXPECT_EQ(kubeshare_.sharepods().Get("low")->status.phase,
            SharePodPhase::kPending);
}

// "busy" takes the scheduler's first cycle while "a", "doomed" and "b"
// queue behind it in that order; "doomed" is deleted mid-cycle. Returns
// the scheduled times of busy, a and b.
std::vector<Time> RunDeletedWhileQueued(int doomed_priority) {
  k8s::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = 1;
  k8s::Cluster cluster(cfg);
  KubeShare kubeshare(&cluster);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());
  for (const auto& [name, priority] :
       std::vector<std::pair<std::string, int>>{
           {"busy", 0}, {"a", 0}, {"doomed", doomed_priority}, {"b", 0}}) {
    EXPECT_TRUE(
        kubeshare.CreateSharePod(MakeSharePod(name, 0.2, priority)).ok());
  }
  cluster.sim().RunUntil(Millis(5));
  EXPECT_TRUE(kubeshare.sharepods().Delete("doomed").ok());
  cluster.sim().RunUntil(Seconds(5));
  std::vector<Time> times;
  for (const char* name : {"busy", "a", "b"}) {
    auto sp = kubeshare.sharepods().Get(name);
    EXPECT_TRUE(sp.ok() && sp->status.scheduled_time.has_value()) << name;
    times.push_back(sp.ok() ? sp->status.scheduled_time.value_or(kTimeZero)
                            : kTimeZero);
  }
  return times;
}

TEST(PriorityQueue, DeletedWhileQueuedRanksAsZeroAtArrivalPosition) {
  // A deleted sharePod's priority is unresolvable, so it ranks as 0 in its
  // arrival slot: it neither jumps ahead of "a" (as its stale priority 10
  // would) nor vanishes, since the cycle that finds it gone is still paid
  // between "a" and "b". Every cycle after busy's sees three live
  // sharePods.
  const std::vector<Time> high = RunDeletedWhileQueued(10);
  const KubeShareConfig config;
  const Duration cycle = config.sched_fixed + config.sched_per_sharepod * 3;
  EXPECT_EQ(high[1] - high[0], cycle);      // a right after busy
  EXPECT_EQ(high[2] - high[1], 2 * cycle);  // doomed's cycle, then b
  EXPECT_EQ(RunDeletedWhileQueued(0), high);
}

}  // namespace
}  // namespace ks::kubeshare
