#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "serving/service.hpp"

namespace perfbench {

/// Flat (name, value) list, printed as one JSON object in insertion order.
using MetricList = std::vector<std::pair<std::string, double>>;

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample. Sorts in
/// place.
double Percentile(std::vector<double>& samples, double p);

/// The traced run's observer. It sees the stack only through public hooks
/// (GpuDevice::SetKernelTraceFn, TokenBackendApi::SetGrantTraceFn,
/// ObjectStore::Watch, and ServiceFrontend::SetTraceFn through the
/// benchmark's request observer) and drives the engine
/// one Step() at a time, timing each step and attributing its host time to
/// the layer whose hook fires first inside it (attribution by trigger, not
/// self time). Every hook is a pure observer, so a traced run's modeled
/// outcome is identical to the untraced run's.
class LayerTrace {
 public:
  /// Attaches the kernel, grant and watch hooks. Call after cluster and
  /// KubeShare have started and before any sharePod exists.
  LayerTrace(ks::k8s::Cluster* cluster, ks::kubeshare::KubeShare* kubeshare);

  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Includes the frontend in the ready-replica count.
  void AddFrontend(const ks::serving::ServiceFrontend* frontend) {
    frontends_.push_back(frontend);
  }
  /// Called from the benchmark's ServiceFrontend::SetTraceFn observer.
  void MarkServing() { Mark(kServing); }

  /// Same contract as Simulation::RunUntil, executed as timed steps.
  void RunUntil(ks::Time t);
  /// One timed engine step; false when the queue is empty.
  bool Step();

  /// Watch deliveries this observer itself received; subtracted from the
  /// store counters so the reported fan-out is the untraced run's.
  std::uint64_t own_watch_deliveries() const {
    return own_pod_deliveries_ + own_sharepod_deliveries_;
  }

  /// Appends the per-layer metrics the hooks and step timing measured.
  void Report(MetricList& out);

 private:
  enum Layer { kGpuDevice, kVgpuToken, kK8sStore, kServing, kOther, kLayers };

  void Mark(Layer layer) {
    if (step_layer_ == kLayers) step_layer_ = layer;
  }
  void OnGrantTrace(std::size_t node, const char* what,
                    const ks::ContainerId& container, ks::Time when);
  void OnSharePod(const ks::kubeshare::SharePod& pod, bool deleted);
  void OnPod(const ks::k8s::Pod& pod);

  ks::k8s::Cluster* cluster_;
  ks::kubeshare::KubeShare* kubeshare_;
  ks::sim::Simulation* sim_;

  Layer step_layer_ = kLayers;
  std::array<std::int64_t, kLayers> layer_ns_{};
  std::vector<double> step_ns_;
  std::size_t pending_peak_ = 0;
  std::size_t pool_size_peak_ = 0;

  std::uint64_t kernels_ = 0;
  std::uint64_t expires_ = 0;
  std::uint64_t releases_ = 0;
  std::map<ks::ContainerId, ks::Time> hold_start_;
  std::vector<double> hold_ms_;
  std::vector<std::size_t> timers_pending_;  // per node
  std::size_t timers_pending_total_ = 0;
  std::size_t timers_pending_peak_ = 0;

  std::uint64_t own_pod_deliveries_ = 0;
  std::uint64_t own_sharepod_deliveries_ = 0;
  std::size_t start_queue_peak_ = 0;
  struct SharePodSeen {
    bool live = false;
    bool pending = false;
    bool waited = false;
    bool bound = false;
  };
  std::map<std::string, SharePodSeen> sharepods_;
  std::size_t live_ = 0;
  std::size_t live_peak_ = 0;
  std::size_t backlog_ = 0;
  std::size_t backlog_peak_ = 0;
  std::vector<double> queue_wait_s_;
  std::vector<double> bind_wait_s_;

  std::vector<const ks::serving::ServiceFrontend*> frontends_;
  std::size_t replicas_ready_peak_ = 0;
};

}  // namespace perfbench
