#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "gpu/device.hpp"
#include "gpu/nvml.hpp"
#include "k8s/apiserver.hpp"
#include "k8s/device_plugin.hpp"
#include "k8s/kubelet.hpp"
#include "k8s/node_controller.hpp"
#include "k8s/runtime.hpp"
#include "k8s/scheduler.hpp"
#include "sim/simulation.hpp"
#include "sim/tick_hub.hpp"
#include "spatial/geometry.hpp"
#include "vgpu/swap.hpp"
#include "vgpu/token_backend.hpp"

namespace ks::k8s {

/// Shape of the simulated testbed. Defaults model the paper's evaluation
/// cluster: 8 AWS p3.8xlarge nodes, each with a 36-core CPU, 244 GB RAM and
/// 4 Tesla V100 GPUs (§5.1).
struct ClusterConfig {
  int nodes = 8;
  int gpus_per_node = 4;
  std::int64_t cpu_millicores = 36000;
  std::int64_t memory_bytes = 244ll * 1024 * 1024 * 1024;
  gpu::GpuSpec gpu_spec;
  LatencyModel latency;
  vgpu::BackendConfig backend;
  /// MIG-style spatial sharing (SM-group slices, concurrent tokens,
  /// fragmentation-aware placement). Disabled by default: the cluster
  /// behaves byte-identically to the temporal-only system.
  spatial::SpatialConfig spatial;
  /// GPUswap-style memory oversubscription (ROADMAP item 2): cuMemAlloc
  /// past physical capacity is served by a per-device SwapManager, token
  /// grants pay page-migration time over the shared host<->device link,
  /// and `backend.tq` can add the nvshare-style exclusive-time-quantum
  /// anti-thrashing rotation. The one over-commit switch: KubeShare's
  /// scheduler packs gpu_mem up to `swap.oversubscription_factor` per
  /// device (unbounded at 0) and the workload host wires its frontends to
  /// the SwapManagers. Disabled by default: the cluster behaves
  /// byte-identically to the strict-quota system.
  vgpu::OversubscriptionConfig oversub;
  /// Use the scaling-factor device plugin (the §3.1 trick) instead of the
  /// stock whole-GPU plugin. Used by the fragmentation baselines.
  bool scaled_plugin = false;
  int plugin_scale = 100;
  /// Node lifecycle controller timings: how long after a node stops
  /// heartbeating it is marked NotReady, and how much longer until its
  /// pods are evicted (kube-controller-manager's
  /// --node-monitor-grace-period / --pod-eviction-timeout, scaled down to
  /// simulation-friendly values).
  Duration node_detection = Seconds(4);
  Duration pod_eviction_timeout = Seconds(5);
  /// Informer-style periodic relist for every kubelet and the scheduler,
  /// repairing state lost to dropped watch events (chaos testing). Zero
  /// disables it — the default, because the perpetual resync loop keeps
  /// the event queue non-empty forever, so Simulation::Run() would never
  /// return; callers that enable it must drive with RunUntil().
  Duration component_resync = Millis(0);
};

/// A fully-wired simulated Kubernetes cluster: apiserver, kube-scheduler,
/// and per node a kubelet, container runtime, device plugin, the physical
/// GPUs, and the vGPU token-backend daemon KubeShare's device library talks
/// to. Owns every component; everything runs on one Simulation.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts kubelets (registering nodes) and the scheduler. Call once,
  /// before running the simulation.
  Status Start();

  sim::Simulation& sim() { return sim_; }
  ApiServer& api() { return *api_; }
  KubeScheduler& scheduler() { return *scheduler_; }
  gpu::NvmlMonitor& nvml() { return *nvml_; }
  /// Shared 1 ms sampler tick the NVML poll and every periodic instrument
  /// multiplex onto.
  sim::TickHub* tick_hub() { return &tick_hub_; }
  const ClusterConfig& config() const { return config_; }

  struct NodeHandle {
    std::string name;
    std::vector<std::unique_ptr<gpu::GpuDevice>> gpus;
    std::unique_ptr<DevicePlugin> plugin;
    std::unique_ptr<ContainerRuntime> runtime;
    std::unique_ptr<Kubelet> kubelet;
    std::unique_ptr<vgpu::TokenBackend> token_backend;
    bool crashed = false;
  };

  std::size_t node_count() const { return nodes_.size(); }
  NodeHandle& node(std::size_t i) { return *nodes_.at(i); }
  NodeHandle* FindNode(const std::string& name);

  gpu::GpuDevice* FindGpu(const GpuUuid& uuid);
  /// Token backend of the node hosting `uuid` (every GPU has exactly one).
  vgpu::TokenBackend* BackendForGpu(const GpuUuid& uuid);

  /// Installs one application-side start/stop hook across all node
  /// runtimes (the workload layer's attachment point).
  void SetContainerStartHook(ContainerRuntime::StartHook hook);
  void SetContainerStopHook(ContainerRuntime::StopHook hook);

  /// Convenience for workloads: exits the container of `pod_name` wherever
  /// it runs.
  Status ExitPodContainer(const std::string& pod_name, bool success,
                          const std::string& reason = "");

  NodeLifecycleController& node_controller() { return *node_controller_; }

  /// Fault injection: hard-crashes a node. Every container on it dies
  /// (stop hooks fire), the kubelet loses its state, and the node's token
  /// daemon goes down with it (its state rebuild is scheduled for when the
  /// node is back). The control plane notices via the node lifecycle
  /// controller after ClusterConfig::node_detection.
  Status CrashNode(const std::string& node_name);

  /// Fault injection: brings a crashed node back. The kubelet resyncs and
  /// the node is marked Ready again after the detection latency.
  Status RecoverNode(const std::string& node_name);

  bool NodeCrashed(const std::string& node_name);

  /// Fault injection: the kernel OOM-killer takes out a pod's container.
  /// Surfaces as a Failed pod with message "OOMKilled".
  Status OomKillPod(const std::string& pod_name);

 private:
  void ScheduleResync();
  void Index();

  ClusterConfig config_;
  sim::Simulation sim_;
  sim::TickHub tick_hub_{&sim_, Millis(1)};
  std::unique_ptr<ApiServer> api_;
  std::unique_ptr<KubeScheduler> scheduler_;
  std::unique_ptr<NodeLifecycleController> node_controller_;
  std::unique_ptr<gpu::NvmlMonitor> nvml_;
  std::vector<std::unique_ptr<NodeHandle>> nodes_;
  /// Nodes and GPUs are fixed; the first lookup indexes them, not setup.
  struct GpuHome { NodeHandle* node; gpu::GpuDevice* device; };
  std::unordered_map<std::string, NodeHandle*> nodes_by_name_;
  std::unordered_map<GpuUuid, GpuHome> gpus_by_uuid_;
  bool started_ = false;
};

}  // namespace ks::k8s
