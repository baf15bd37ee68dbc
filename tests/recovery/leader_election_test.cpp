#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "k8s/apiserver.hpp"
#include "k8s/leader_election.hpp"
#include "k8s/store.hpp"
#include "kubeshare/kubeshare.hpp"
#include "sim/simulation.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks {
namespace {

k8s::LeaderElectorConfig Candidate(const std::string& identity) {
  k8s::LeaderElectorConfig cfg;
  cfg.lease_name = "test-lease";
  cfg.identity = identity;
  cfg.lease_duration = Seconds(10);
  cfg.renew_period = Seconds(3);
  cfg.retry_period = Seconds(2);
  return cfg;
}

TEST(LeaderElection, FirstCandidateWinsAndRenews) {
  sim::Simulation sim;
  k8s::ApiServer api(&sim);
  k8s::LeaderElector a(&api, Candidate("a"));
  a.Start();
  sim.RunUntil(Seconds(1));
  EXPECT_TRUE(a.IsLeader());
  EXPECT_EQ(a.fencing_token(), 1u);
  EXPECT_EQ(a.elections_won(), 1u);
  // Renewals keep the lease fresh well past lease_duration without a new
  // election (the token stays 1).
  sim.RunUntil(Seconds(60));
  EXPECT_TRUE(a.IsLeader());
  EXPECT_EQ(a.fencing_token(), 1u);
  EXPECT_EQ(a.elections_won(), 1u);
}

TEST(LeaderElection, StandbyTakesOverAfterPartitionWithHigherToken) {
  sim::Simulation sim;
  k8s::ApiServer api(&sim);
  k8s::LeaderElector a(&api, Candidate("a"));
  k8s::LeaderElector b(&api, Candidate("b"));
  a.Start();
  sim.RunUntil(Seconds(1));
  b.Start();
  sim.RunUntil(Seconds(5));
  ASSERT_TRUE(a.IsLeader());
  ASSERT_FALSE(b.IsLeader());

  // Blackhole a's lease traffic: it stops renewing but does not learn it
  // was deposed.
  a.SetPartitioned(true);
  sim.RunUntil(Seconds(30));
  EXPECT_TRUE(b.IsLeader());
  EXPECT_EQ(b.fencing_token(), 2u);
  EXPECT_TRUE(a.IsLeader());  // still believes — partition, not stop

  // Heal: a's next renewal observes the new holder and steps down.
  a.SetPartitioned(false);
  sim.RunUntil(Seconds(40));
  EXPECT_FALSE(a.IsLeader());
  EXPECT_TRUE(b.IsLeader());
  EXPECT_GE(a.stepdowns(), 1u);
}

TEST(LeaderElection, FencingRejectsEveryStaleWriteZeroApplied) {
  sim::Simulation sim;
  k8s::ApiServer api(&sim);
  k8s::LeaderElector a(&api, Candidate("a"));
  k8s::LeaderElector b(&api, Candidate("b"));
  a.RegisterGate(&api.pods().fencing());
  b.RegisterGate(&api.pods().fencing());
  a.Start();
  sim.RunUntil(Seconds(1));
  b.Start();

  k8s::Pod pod;
  pod.meta.name = "victim";
  ASSERT_TRUE(api.pods().Create(pod).ok());

  a.SetPartitioned(true);
  sim.RunUntil(Seconds(30));
  ASSERT_TRUE(b.IsLeader());
  ASSERT_EQ(api.pods().fencing().floor(), b.fencing_token());

  // The deposed leader keeps writing with its stale token. Every single
  // attempt must bounce off the gate and leave the object untouched.
  const std::uint64_t version_before =
      api.pods().Get("victim")->meta.resource_version;
  const std::uint64_t rejected_before = api.pods().fencing().rejected();
  constexpr int kStaleWrites = 5;
  for (int i = 0; i < kStaleWrites; ++i) {
    const Status s = k8s::RetryOnConflict(
        api.pods(), "victim",
        [&](k8s::Pod& p) {
          p.meta.labels["stale"] = "true";
          return Status::Ok();
        },
        a.fencing_token());
    EXPECT_FALSE(s.ok());
  }
  EXPECT_EQ(api.pods().fencing().rejected(),
            rejected_before + kStaleWrites);
  const auto after = api.pods().Get("victim");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->meta.resource_version, version_before);  // 0 applied
  EXPECT_EQ(after->meta.labels.count("stale"), 0u);

  // The new leader's token passes.
  EXPECT_TRUE(k8s::RetryOnConflict(
                  api.pods(), "victim",
                  [](k8s::Pod& p) {
                    p.meta.labels["owner"] = "b";
                    return Status::Ok();
                  },
                  b.fencing_token())
                  .ok());
}

/// End-to-end: the KubeShare facade campaigning for its lease, a standby
/// taking over when the leader is partitioned mid-workload, and the
/// deposed controllers' writes all landing as fenced rejections.
TEST(LeaderElection, KubeShareFacadeSurvivesLeaderPartition) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.gpus_per_node = 2;
  ccfg.component_resync = Seconds(1);
  k8s::Cluster cluster(ccfg);

  kubeshare::KubeShareConfig kcfg;
  kcfg.reconcile_period = Seconds(1);
  kcfg.enable_leader_election = true;
  kubeshare::KubeShare kubeshare(&cluster, kcfg);
  workload::WorkloadHost host(&cluster);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(kubeshare.Start().ok());
  ASSERT_NE(kubeshare.elector(), nullptr);

  constexpr int kJobs = 8;
  for (int i = 0; i < kJobs; ++i) {
    const std::string name = "job-" + std::to_string(i);
    cluster.sim().ScheduleAfter(Millis(400) * i, [&, name, i] {
      workload::InferenceSpec spec =
          workload::InferenceSpec::ForDemand(0.4, 600, Millis(10));
      spec.seed = 7 + static_cast<std::uint64_t>(i);
      host.ExpectJob(name, [spec] {
        return std::make_unique<workload::InferenceJob>(spec);
      });
      kubeshare::SharePod sp;
      sp.meta.name = name;
      sp.spec.gpu.gpu_request = 0.45;
      sp.spec.gpu.gpu_limit = 1.0;
      sp.spec.gpu.gpu_mem = 0.3;
      EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
    });
  }
  cluster.sim().RunUntil(Seconds(2));
  ASSERT_TRUE(kubeshare.elector()->IsLeader());

  // A standby replica campaigning for the same lease, guarding the same
  // stores.
  k8s::LeaderElector standby(
      &cluster.api(),
      [&] {
        k8s::LeaderElectorConfig cfg = kubeshare.elector()->config();
        cfg.identity = "kubeshare-1";
        return cfg;
      }());
  standby.RegisterGate(&kubeshare.sharepods().fencing());
  standby.RegisterGate(&cluster.api().pods().fencing());
  standby.Start();

  // Partition the active leader mid-workload (jobs are ~15 s of work, so
  // plenty of controller write traffic happens while it is deposed).
  cluster.sim().ScheduleAfter(Seconds(6), [&] {
    kubeshare.elector()->SetPartitioned(true);
  });

  const Time deadline = Minutes(5);
  while (cluster.sim().Now() < deadline) {
    cluster.sim().RunUntil(cluster.sim().Now() + Seconds(1));
    if (host.completed() + host.failed() ==
        static_cast<std::size_t>(kJobs)) {
      break;
    }
  }
  cluster.sim().RunUntil(cluster.sim().Now() + Seconds(5));

  EXPECT_TRUE(standby.IsLeader());
  EXPECT_EQ(standby.fencing_token(), 2u);
  // The deposed controllers kept emitting writes with token 1; the gate
  // floor is 2, so every one of them was rejected — none applied.
  const std::uint64_t fenced = kubeshare.sharepods().fencing().rejected() +
                               cluster.api().pods().fencing().rejected();
  EXPECT_GT(fenced, 0u);
  EXPECT_GE(kubeshare.sharepods().fencing().floor(), 2u);
  EXPECT_GE(cluster.api().pods().fencing().floor(), 2u);
}

}  // namespace
}  // namespace ks
