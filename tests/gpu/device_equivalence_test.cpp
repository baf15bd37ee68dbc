// Golden pins for the per-kernel device engine on seeded full-cluster
// KubeShare runs: kernel start/finish traces, NVML utilization series,
// token grant/expire/release traces, completions and the engine-event
// count must match tests/golden/device.golden byte for byte, including
// across kTokenDaemonRestart and kDevMgrCrash chaos faults. The entries
// were recorded from the per-kernel reference engine the current one
// reproduces.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "support/golden.hpp"
#include "workload/generator.hpp"

namespace ks::gpu {
namespace {

using golden::FaultChoice;
using Kind = workload::WorkloadConfig::JobKind;

void ExpectPinned(const std::string& run, std::uint64_t seed, Kind kind,
                  FaultChoice fault) {
  golden::ExpectDeviceGolden(
      "cluster/" + run + "-seed" + std::to_string(seed),
      golden::RunWorkloadCluster(seed, kind, fault));
}

TEST(DeviceEquivalence, InferenceClusterTracesByteEqualAcrossSeeds) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    ExpectPinned("inference", seed, Kind::kInference, FaultChoice::kNone);
  }
}

TEST(DeviceEquivalence, TrainingClusterTracesByteEqualAcrossSeeds) {
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    ExpectPinned("training", seed, Kind::kTraining, FaultChoice::kNone);
  }
}

TEST(DeviceEquivalence, TracesByteEqualAcrossTokenDaemonRestart) {
  for (std::uint64_t seed : {31u, 32u}) {
    ExpectPinned("daemon-restart", seed, Kind::kInference,
                 FaultChoice::kTokenDaemonRestart);
  }
}

TEST(DeviceEquivalence, TracesByteEqualAcrossDevMgrCrash) {
  for (std::uint64_t seed : {41u, 42u}) {
    ExpectPinned("devmgr-crash", seed, Kind::kTraining,
                 FaultChoice::kDevMgrCrash);
  }
}

}  // namespace
}  // namespace ks::gpu
