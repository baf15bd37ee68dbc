// Sharded-vs-single differential: the single-engine run is the oracle, and
// every other engine kind — single with the scale event economy, sharded
// serial, sharded with worker threads — must reproduce its kernel/NVML/
// token traces and final cluster state byte-for-byte, across seeded
// full-cluster runs including node-crash and DevMgr-resync chaos.
//
// Runs under `ctest -L differential`; CI repeats it under ASan+UBSan and
// builds the sharded engine under TSan.

#include "scale/cluster_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace ks::scale {
namespace {

ScaleConfig SmallCluster(std::uint64_t seed) {
  ScaleConfig config;
  config.nodes = 48;
  config.sharepods = 384;
  config.node_shards = 4;
  config.threads = 2;
  config.duration = Seconds(8);
  config.seed = seed;
  config.mean_lifetime = Seconds(3);  // several churn generations
  config.crash_nodes = 2;            // node-kill chaos
  config.devmgr_crashes = 1;         // informer loss + resync chaos
  config.capture_traces = true;
  return config;
}

void ExpectEquivalent(const ScaleResult& oracle, const ScaleResult& got) {
  SCOPED_TRACE(got.engine);
  // The differential surface: traces (order-insensitive digest plus the
  // canonically sorted dumps), final state, and the work counters.
  EXPECT_EQ(got.trace_digest, oracle.trace_digest);
  EXPECT_EQ(got.state_digest, oracle.state_digest);
  ASSERT_EQ(got.shard_traces.size(), oracle.shard_traces.size());
  for (std::size_t i = 0; i < oracle.shard_traces.size(); ++i) {
    EXPECT_EQ(got.shard_traces[i], oracle.shard_traces[i])
        << "shard " << i << " trace diverged";
  }
  EXPECT_EQ(got.useful_events, oracle.useful_events);
  EXPECT_EQ(got.scheduled, oracle.scheduled);
  EXPECT_EQ(got.occ_conflicts, oracle.occ_conflicts);
  EXPECT_EQ(got.bind_rejects, oracle.bind_rejects);
  EXPECT_EQ(got.created, oracle.created);
  EXPECT_EQ(got.completed, oracle.completed);
  EXPECT_EQ(got.failed, oracle.failed);
  EXPECT_EQ(got.crash_kills, oracle.crash_kills);
  EXPECT_EQ(got.token_grants, oracle.token_grants);
  EXPECT_EQ(got.kernel_bursts, oracle.kernel_bursts);
  EXPECT_EQ(got.hostile_fenced, oracle.hostile_fenced);
  EXPECT_EQ(got.fenced_bursts, oracle.fenced_bursts);
  EXPECT_EQ(got.nvml_samples, oracle.nvml_samples);
  EXPECT_EQ(got.heartbeats, oracle.heartbeats);
  EXPECT_EQ(got.watch_events, oracle.watch_events);
  EXPECT_EQ(got.watch_deliveries, oracle.watch_deliveries);
  // Hard invariants regardless of engine.
  EXPECT_EQ(got.devmgr_mirror_divergence, 0u);
  EXPECT_EQ(got.watch_order_violations, 0u);
  EXPECT_EQ(got.lookahead_violations, 0u);
}

// >= 10 seeded full-cluster runs with chaos, per the acceptance bar.
class ShardedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedEquivalence, AllEnginesMatchSingleOracle) {
  const ScaleConfig config = SmallCluster(GetParam());
  const ScaleResult oracle = RunScaleModel(config, EngineKind::kSingleBaseline);
  ASSERT_EQ(oracle.devmgr_mirror_divergence, 0u);
  ASSERT_EQ(oracle.watch_order_violations, 0u);
  // The run must exercise what it claims to: churn, chaos, recovery.
  ASSERT_GT(oracle.completed, 0u);
  ASSERT_GT(oracle.crash_kills, 0u);
  ASSERT_GT(oracle.devmgr_resyncs, 0u);
  ASSERT_GT(oracle.scheduled, 0u);

  ExpectEquivalent(oracle,
                   RunScaleModel(config, EngineKind::kSingleBatched));
  ExpectEquivalent(oracle,
                   RunScaleModel(config, EngineKind::kShardedSerial));
  ExpectEquivalent(oracle,
                   RunScaleModel(config, EngineKind::kShardedParallel));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u));

std::string MergedTrace(const ScaleResult& result) {
  std::vector<std::string> lines;
  for (const std::string& shard_trace : result.shard_traces) {
    std::size_t start = 0;
    while (start < shard_trace.size()) {
      const std::size_t end = shard_trace.find('\n', start);
      lines.push_back(shard_trace.substr(start, end - start));
      if (end == std::string::npos) break;
      start = end + 1;
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string merged;
  for (const std::string& line : lines) {
    merged += line;
    merged += '\n';
  }
  return merged;
}

TEST(ShardedEquivalenceDetail, ShardLayoutFollowsSeedNotShardCount) {
  // Changing the shard count changes the partition but not the physics:
  // the single-engine oracle must still be matched with 1, 2 and 8 shards.
  // Per-shard dumps differ by layout, so compare the merged canonical
  // trace plus the (partition-independent) digests and counters.
  ScaleConfig config = SmallCluster(99);
  const ScaleResult oracle = RunScaleModel(config, EngineKind::kSingleBaseline);
  const std::string oracle_trace = MergedTrace(oracle);
  ASSERT_FALSE(oracle_trace.empty());
  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    config.node_shards = shards;
    const ScaleResult got = RunScaleModel(config, EngineKind::kShardedSerial);
    EXPECT_EQ(got.trace_digest, oracle.trace_digest);
    EXPECT_EQ(got.state_digest, oracle.state_digest);
    EXPECT_EQ(MergedTrace(got), oracle_trace);
    EXPECT_EQ(got.useful_events, oracle.useful_events);
    EXPECT_EQ(got.scheduled, oracle.scheduled);
    EXPECT_EQ(got.lookahead_violations, 0u);
  }
}

TEST(ShardedEquivalenceDetail, EventEconomyIsReal) {
  // The batched/calendar path must do the same useful work with far fewer
  // engine events — that gap is the whole point of the scale path.
  const ScaleConfig config = SmallCluster(7);
  const ScaleResult baseline =
      RunScaleModel(config, EngineKind::kSingleBaseline);
  const ScaleResult batched =
      RunScaleModel(config, EngineKind::kSingleBatched);
  EXPECT_EQ(batched.useful_events, baseline.useful_events);
  EXPECT_LT(batched.engine_events, baseline.engine_events / 2);
  EXPECT_LT(batched.watch_batched_events, batched.watch_unbatched_events);
}

// Adversarial tenants in the churn soak: every 7th pod overstays its token
// budget, gets its gate fenced, and floods rejected bursts until it exits.
// The hostile schedule must be byte-equal across every engine kind and
// across thread counts — an attacker must not be able to hide behind
// parallelism nondeterminism.
class AdversarialSharded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversarialSharded, HostileScheduleIsEngineInvariant) {
  ScaleConfig config = SmallCluster(GetParam());
  config.hostile_every = 7;
  config.hostile_fence_after = 3;
  const ScaleResult oracle = RunScaleModel(config, EngineKind::kSingleBaseline);
  // The run must actually fence gates and reject floods.
  ASSERT_GT(oracle.hostile_fenced, 0u);
  ASSERT_GT(oracle.fenced_bursts, 0u);
  ASSERT_GT(oracle.kernel_bursts, 0u);

  ExpectEquivalent(oracle,
                   RunScaleModel(config, EngineKind::kSingleBatched));
  ExpectEquivalent(oracle,
                   RunScaleModel(config, EngineKind::kShardedSerial));
  ExpectEquivalent(oracle,
                   RunScaleModel(config, EngineKind::kShardedParallel));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialSharded,
                         ::testing::Values(21u, 22u, 23u));

TEST(ShardedEquivalenceDetail, AdversarialThreadCountIsInvisible) {
  // Same thread-invariance bar as the polite soak, with hostile tenants
  // flooding fenced bursts throughout.
  ScaleConfig config = SmallCluster(31);
  config.hostile_every = 5;
  config.hostile_fence_after = 2;
  config.threads = 1;
  const ScaleResult one = RunScaleModel(config, EngineKind::kShardedParallel);
  ASSERT_GT(one.fenced_bursts, 0u);
  config.threads = 4;
  const ScaleResult four = RunScaleModel(config, EngineKind::kShardedParallel);
  EXPECT_EQ(one.trace_digest, four.trace_digest);
  EXPECT_EQ(one.state_digest, four.state_digest);
  EXPECT_EQ(one.fenced_bursts, four.fenced_bursts);
  EXPECT_EQ(one.hostile_fenced, four.hostile_fenced);
  ASSERT_EQ(one.shard_traces.size(), four.shard_traces.size());
  for (std::size_t i = 0; i < one.shard_traces.size(); ++i) {
    EXPECT_EQ(one.shard_traces[i], four.shard_traces[i]);
  }
}

TEST(ShardedEquivalenceDetail, ParallelThreadCountIsInvisible) {
  // threads is a wall-clock knob, never a semantics knob.
  ScaleConfig config = SmallCluster(5);
  config.threads = 1;
  const ScaleResult one = RunScaleModel(config, EngineKind::kShardedParallel);
  config.threads = 4;
  const ScaleResult four = RunScaleModel(config, EngineKind::kShardedParallel);
  EXPECT_EQ(one.trace_digest, four.trace_digest);
  EXPECT_EQ(one.state_digest, four.state_digest);
  EXPECT_EQ(one.useful_events, four.useful_events);
  ASSERT_EQ(one.shard_traces.size(), four.shard_traces.size());
  for (std::size_t i = 0; i < one.shard_traces.size(); ++i) {
    EXPECT_EQ(one.shard_traces[i], four.shard_traces[i]);
  }
}

}  // namespace
}  // namespace ks::scale
