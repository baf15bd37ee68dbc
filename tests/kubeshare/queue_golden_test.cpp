// Golden pins for KubeShare-Sched's queue order.
//
// Seeded churn plans (support/churn.hpp) on a small, contended cluster:
// sharePods with priorities 0-3 arrive faster than the serial scheduler
// places them, park when no capacity is free and come back in flushed
// groups, and a third of the rounds delete a random live sharePod, often
// one still waiting in the queue. Every sharePod's scheduled time, node,
// GPUID and final phase (at its deletion, or at the horizon) plus the
// engine-event count are folded into tests/golden/sched_queue.golden.
// The pins hold the queue's order: highest priority first, FIFO among
// equals, and a sharePod deleted while queued ranks as priority 0 at its
// arrival position (it still costs the cycle that finds it gone).
// tests/support/golden.hpp has the digest and how to re-record.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "kubeshare/kubeshare.hpp"
#include "support/churn.hpp"
#include "support/golden.hpp"
#include "workload/host.hpp"

namespace ks::kubeshare {
namespace {

constexpr const char* kGoldenFile = "sched_queue.golden";
constexpr const char* kGoldenHeader =
    "# KubeShare-Sched queue golden: <run> <line counts + FNV-1a digests>.\n"
    "# Recorded from the deque + per-cycle priority scan the indexed queue\n"
    "# replaced; see tests/kubeshare/queue_golden_test.cpp for the runs.\n";

std::string Outcome(const SharePod& sp, bool deleted) {
  std::ostringstream line;
  line << sp.meta.name << " prio=" << sp.spec.priority << " sched=";
  if (sp.status.scheduled_time.has_value()) {
    line << sp.status.scheduled_time->count();
  } else {
    line << "-";
  }
  line << " node=" << sp.spec.node_name << " gpu=" << sp.spec.gpu_id.value()
       << " phase=" << SharePodPhaseName(sp.status.phase)
       << " deleted=" << deleted;
  return line.str();
}

std::string RunQueueChurn(std::uint64_t seed) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.gpus_per_node = 2;
  k8s::Cluster cluster(ccfg);
  KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());

  // Short gaps and a deep live cap keep a backlog in front of the serial
  // scheduler for most of the run.
  churn::ChurnOptions options;
  options.rounds = 160;
  options.max_live = 24;
  options.min_gap_ms = 5;
  options.max_gap_ms = 120;
  churn::ChurnPlan plan(seed, &cluster, &kubeshare, &host, options);

  std::map<std::string, std::string> outcomes;
  int deleted_unscheduled = 0;
  plan.SetBeforeDelete([&](const std::string& name) {
    auto sp = kubeshare.sharepods().Get(name);
    if (!sp.ok()) return;
    if (!sp->scheduled()) ++deleted_unscheduled;
    outcomes[name] = Outcome(*sp, /*deleted=*/true);
  });
  plan.Run();
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(20));
  kubeshare.sharepods().ForEach([&](const SharePod& sp) {
    outcomes[sp.meta.name] = Outcome(sp, /*deleted=*/false);
  });

  // The plan must actually exercise the queue's hard cases.
  EXPECT_GT(deleted_unscheduled, 3) << "seed " << seed;
  EXPECT_GT(kubeshare.sched().retry_count(), 0u) << "seed " << seed;

  golden::TraceDigest digest;
  for (const std::string& name : plan.submitted()) digest.Add(outcomes[name]);
  std::ostringstream out;
  out << "sharepods=" << digest.str()
      << " scheduled=" << kubeshare.sched().scheduled_count()
      << " retries=" << kubeshare.sched().retry_count()
      << " deleted_unscheduled=" << deleted_unscheduled
      << " events=" << cluster.sim().lifetime_events();
  return out.str();
}

class QueueGolden : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueGolden, ChurnMatchesRecordedOrder) {
  golden::ExpectGolden(kGoldenFile, kGoldenHeader,
                       "churn/seed" + std::to_string(GetParam()),
                       RunQueueChurn(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueGolden, ::testing::Values(5, 17, 29),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace ks::kubeshare
