// Shared support for the differential suite's golden-trace pins.
//
// A pinned run folds what it observably did (kernel lifetimes, token
// transitions, NVML samples, counters) into line counts plus FNV-1a
// digests, stored as one "key summary" line per run in a file under
// tests/golden/. After an intentional behaviour change, re-record by
// running the test binary directly (not under parallel ctest) with
// KS_UPDATE_GOLDEN=1 and review the diff of the golden file.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "k8s/cluster.hpp"
#include "workload/generator.hpp"

namespace ks::golden {

/// Line count plus FNV-1a 64 over the lines (each newline-terminated).
class TraceDigest {
 public:
  void Add(const std::string& line);
  std::string str() const;

 private:
  void Mix(unsigned char c);

  std::uint64_t hash_ = 14695981039346656037ull;
  std::uint64_t lines_ = 0;
};

/// Expects `actual` to equal the `key` entry of tests/golden/<file>. With
/// KS_UPDATE_GOLDEN set, rewrites that entry instead; the rewritten file
/// starts with `header` (comment lines, each starting with '#').
void ExpectGolden(const std::string& file, const std::string& header,
                  const std::string& key, const std::string& actual);

/// ExpectGolden against tests/golden/device.golden, the device engine's
/// whole-cluster pins (device, fencing, spatial, oversubscription and
/// serving runs).
void ExpectDeviceGolden(const std::string& key, const std::string& actual);

/// Whole-cluster collector: every device's kernel lifetimes and every
/// node's token-daemon transitions, each in its own order, plus NVML
/// samples on request. Trace callbacks keep firing during cluster
/// teardown, so declare the collector, and anything `also` refers to,
/// before the cluster it attaches to.
class ClusterDigests {
 public:
  /// `also`, when set, sees every kernel lifetime too. Also takes the
  /// cluster's NVML sample hook and keeps every sample per device.
  void Attach(k8s::Cluster& cluster, gpu::KernelTraceFn also = nullptr);
  /// Every NVML sample of one device since Attach, oldest first.
  const std::vector<gpu::NvmlSample>& NvmlSamples(const GpuUuid& uuid) const;
  /// Folds every device's NVML samples device-major, bit-exact (call after
  /// the run).
  void AddNvml(k8s::Cluster& cluster);
  /// "kernels=<d> tokens=<d> nvml=<d>"; devices and nodes fold in name
  /// order.
  std::string str() const;

 private:
  std::map<std::string, TraceDigest> kernels_;
  std::map<std::string, TraceDigest> tokens_;
  std::map<std::string, std::vector<gpu::NvmlSample>> nvml_samples_;
  TraceDigest nvml_;
};

/// The differential suite's standard KubeShare run: 3 nodes x 2 GPUs, 12
/// jobs of `kind` (seeded), an optional fault at t=8 s, 35 s horizon.
/// Returns the collector's summary plus completions and the engine-event
/// count.
enum class FaultChoice { kNone, kTokenDaemonRestart, kDevMgrCrash };
std::string RunWorkloadCluster(std::uint64_t seed,
                               workload::WorkloadConfig::JobKind kind,
                               FaultChoice fault);

}  // namespace ks::golden
