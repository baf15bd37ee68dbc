#include "support/golden.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "gpu/nvml.hpp"
#include "kubeshare/kubeshare.hpp"
#include "workload/host.hpp"

namespace ks::golden {

void TraceDigest::Add(const std::string& line) {
  for (const char c : line) Mix(static_cast<unsigned char>(c));
  Mix('\n');
  ++lines_;
}

std::string TraceDigest::str() const {
  std::ostringstream out;
  out << lines_ << ":" << std::hex << hash_;
  return out.str();
}

void TraceDigest::Mix(unsigned char c) {
  hash_ ^= c;
  hash_ *= 1099511628211ull;
}

namespace {

std::map<std::string, std::string> LoadGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    golden[line.substr(0, space)] = line.substr(space + 1);
  }
  return golden;
}

}  // namespace

void ExpectGolden(const std::string& file, const std::string& header,
                  const std::string& key, const std::string& actual) {
  const std::string path =
      std::string(KS_SOURCE_DIR) + "/tests/golden/" + file;
  std::map<std::string, std::string> golden = LoadGolden(path);
  if (std::getenv("KS_UPDATE_GOLDEN") != nullptr) {
    golden[key] = actual;
    std::ofstream out(path);
    out << header;
    for (const auto& [k, v] : golden) out << k << " " << v << "\n";
    return;
  }
  const auto it = golden.find(key);
  ASSERT_NE(it, golden.end()) << "no golden entry for " << key << " in "
                              << file;
  EXPECT_EQ(it->second, actual) << key;
}

void ExpectDeviceGolden(const std::string& key, const std::string& actual) {
  ExpectGolden(
      "device.golden",
      "# Device-engine golden traces: <run> <line counts + FNV-1a digests>.\n"
      "# Recorded from the per-kernel reference engine (one completion\n"
      "# event per kernel, every callback at its kernel's finish). The\n"
      "# runs are built in tests/gpu/device_equivalence_test.cpp,\n"
      "# tests/gpu/fencing_equivalence_test.cpp,\n"
      "# tests/vgpu/spatial_equivalence_test.cpp,\n"
      "# tests/vgpu/oversub_equivalence_test.cpp and\n"
      "# tests/serving/serving_golden_test.cpp.\n",
      key, actual);
}

void ClusterDigests::Attach(k8s::Cluster& cluster, gpu::KernelTraceFn also) {
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    k8s::Cluster::NodeHandle& node = cluster.node(n);
    for (auto& dev : node.gpus) {
      TraceDigest* sink = &kernels_[dev->uuid().value()];
      dev->SetKernelTraceFn([sink, also](const gpu::KernelTraceEvent& e) {
        sink->Add(std::to_string(e.id) + " " + e.owner.value() + " " +
                  e.name + " " + std::to_string(e.start.count()) + " " +
                  std::to_string(e.finish.count()));
        if (also) also(e);
      });
    }
    TraceDigest* sink = &tokens_[node.name];
    node.token_backend->SetGrantTraceFn(
        [sink](const char* what, const ContainerId& container, Time when) {
          sink->Add(std::string(what) + " " + container.value() + " " +
                    std::to_string(when.count()));
        });
  }
  cluster.nvml().SetSampleFn(
      [this](const GpuUuid& uuid, const gpu::NvmlSample& s) {
        nvml_samples_[uuid.value()].push_back(s);
      });
}

const std::vector<gpu::NvmlSample>& ClusterDigests::NvmlSamples(
    const GpuUuid& uuid) const {
  static const std::vector<gpu::NvmlSample> kNone;
  const auto it = nvml_samples_.find(uuid.value());
  return it == nvml_samples_.end() ? kNone : it->second;
}

void ClusterDigests::AddNvml(k8s::Cluster& cluster) {
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    for (auto& dev : cluster.node(n).gpus) {
      const GpuUuid& uuid = dev->uuid();
      for (const gpu::NvmlSample& s : NvmlSamples(uuid)) {
        std::ostringstream line;
        line << uuid.value() << " " << s.at.count() << " " << std::hexfloat
             << s.gpu_util << " " << s.mem_used;
        nvml_.Add(line.str());
      }
    }
  }
}

std::string ClusterDigests::str() const {
  TraceDigest kernel_all;
  for (const auto& [uuid, d] : kernels_) kernel_all.Add(uuid + " " + d.str());
  TraceDigest token_all;
  for (const auto& [node, d] : tokens_) token_all.Add(node + " " + d.str());
  return "kernels=" + kernel_all.str() + " tokens=" + token_all.str() +
         " nvml=" + nvml_.str();
}

std::string RunWorkloadCluster(std::uint64_t seed,
                               workload::WorkloadConfig::JobKind kind,
                               FaultChoice fault) {
  ClusterDigests traces;
  std::ostringstream out;
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 3;
    ccfg.gpus_per_node = 2;
    k8s::Cluster cluster(ccfg);
    traces.Attach(cluster);

    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);
    workload::WorkloadConfig wcfg;
    wcfg.total_jobs = 12;
    wcfg.mean_interarrival = Seconds(1.0);
    wcfg.demand_mean = 0.4;
    wcfg.demand_stddev = 0.15;
    wcfg.job_duration = Seconds(6);
    wcfg.seed = seed;
    wcfg.job_kind = kind;
    workload::WorkloadDriver driver(&cluster, &host,
                                    workload::WorkloadDriver::Mode::kKubeShare,
                                    &kubeshare, wcfg);

    chaos::FaultPlan plan;
    if (fault != FaultChoice::kNone) {
      chaos::Fault f;
      f.at = Seconds(8);
      if (fault == FaultChoice::kTokenDaemonRestart) {
        f.kind = chaos::FaultKind::kTokenDaemonRestart;
        f.node = "node-0";
      } else {
        f.kind = chaos::FaultKind::kDevMgrCrash;
        f.duration = Seconds(2);
      }
      plan.faults.push_back(f);
    }
    chaos::FaultInjector injector(&cluster, plan);
    injector.SetKubeShare(&kubeshare);

    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());
    EXPECT_TRUE(injector.Arm().ok());
    cluster.nvml().Start();
    driver.Start();
    cluster.sim().RunUntil(Seconds(35));
    cluster.nvml().Stop();

    traces.AddNvml(cluster);
    out << " completed=" << host.completed() << " failed=" << host.failed()
        << " events=" << cluster.sim().lifetime_events();
  }
  return traces.str() + out.str();
}

}  // namespace ks::golden
