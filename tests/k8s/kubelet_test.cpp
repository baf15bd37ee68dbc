#include "k8s/kubelet.hpp"

#include <gtest/gtest.h>

#include "k8s/apiserver.hpp"
#include "k8s/device_plugin.hpp"
#include "k8s/runtime.hpp"

namespace ks::k8s {
namespace {

/// Direct kubelet tests against a bare apiserver: pods are bound by hand
/// (no scheduler), exercising admission, device-unit bookkeeping and the
/// failure paths precisely.
class KubeletTest : public ::testing::Test {
 protected:
  KubeletTest() {
    for (int i = 0; i < 2; ++i) {
      gpus_.push_back(std::make_unique<gpu::GpuDevice>(
          &sim_, GpuUuid("GPU-" + std::to_string(i))));
      raw_.push_back(gpus_.back().get());
    }
    plugin_ = std::make_unique<NvidiaDevicePlugin>(raw_);
    runtime_ = std::make_unique<ContainerRuntime>(&sim_, "node-0", raw_,
                                                  LatencyModel{});
    ResourceList machine;
    machine.Set(kResourceCpu, 4000);
    machine.Set(kResourceMemory, 16ll << 30);
    kubelet_ = std::make_unique<Kubelet>(api_.get(), "node-0", machine,
                                         runtime_.get(), plugin_.get());
    EXPECT_TRUE(kubelet_->Start().ok());
  }

  /// Creates a pod already bound to node-0.
  void BoundPod(const std::string& name, std::int64_t cpu, std::int64_t gpus) {
    Pod pod;
    pod.meta.name = name;
    pod.spec.requests.Set(kResourceCpu, cpu);
    if (gpus > 0) pod.spec.requests.Set(kResourceNvidiaGpu, gpus);
    pod.status.node_name = "node-0";
    ASSERT_TRUE(api_->pods().Create(pod).ok());
  }

  PodPhase PhaseOf(const std::string& name) {
    return api_->pods().Get(name)->status.phase;
  }

  sim::Simulation sim_;
  std::unique_ptr<ApiServer> api_ = std::make_unique<ApiServer>(&sim_);
  std::vector<std::unique_ptr<gpu::GpuDevice>> gpus_;
  std::vector<gpu::GpuDevice*> raw_;
  std::unique_ptr<NvidiaDevicePlugin> plugin_;
  std::unique_ptr<ContainerRuntime> runtime_;
  std::unique_ptr<Kubelet> kubelet_;
};

TEST_F(KubeletTest, RegistersNodeWithPluginCapacity) {
  sim_.Run();
  auto node = api_->nodes().Get("node-0");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->capacity.Get(kResourceNvidiaGpu), 2);
  EXPECT_EQ(node->capacity.Get(kResourceCpu), 4000);
  EXPECT_EQ(node->meta.labels.at("kubernetes.io/hostname"), "node-0");
}

TEST_F(KubeletTest, RunsBoundPodAndInjectsDeviceEnv) {
  BoundPod("p", 1000, 1);
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(PhaseOf("p"), PodPhase::kRunning);
  const auto pod = api_->pods().Get("p");
  ASSERT_TRUE(pod.ok());
  EXPECT_EQ(pod->status.effective_env.at(kNvidiaVisibleDevices), "GPU-0");
  EXPECT_EQ(kubelet_->FreeDeviceUnits(), 1u);
  EXPECT_EQ(kubelet_->UnitsOf("p").size(), 1u);
}

TEST_F(KubeletTest, AdmissionRejectsOverCpu) {
  BoundPod("big", 5000, 0);
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(PhaseOf("big"), PodPhase::kFailed);
  EXPECT_EQ(api_->pods().Get("big")->status.message, "OutOfResources");
  EXPECT_EQ(kubelet_->allocated().Get(kResourceCpu), 0);
}

TEST_F(KubeletTest, AdmissionRejectsWhenDevicesExhausted) {
  BoundPod("a", 100, 2);
  sim_.RunUntil(Seconds(5));
  ASSERT_EQ(PhaseOf("a"), PodPhase::kRunning);
  // The kube-scheduler would normally prevent this; a direct binding that
  // over-commits devices must fail kubelet admission (the aggregate
  // capacity check fires before unit picking, so the message is the
  // generic OutOfResources).
  BoundPod("b", 100, 1);
  sim_.RunUntil(Seconds(10));
  EXPECT_EQ(PhaseOf("b"), PodPhase::kFailed);
  EXPECT_EQ(api_->pods().Get("b")->status.message, "OutOfResources");
}

TEST_F(KubeletTest, UnitsPickedFirstFit) {
  BoundPod("a", 100, 1);
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(kubelet_->UnitsOf("a")[0], "GPU-0");
  BoundPod("b", 100, 1);
  sim_.RunUntil(Seconds(10));
  EXPECT_EQ(kubelet_->UnitsOf("b")[0], "GPU-1");
}

TEST_F(KubeletTest, ExitReleasesResourcesAndUnits) {
  BoundPod("p", 1000, 1);
  sim_.RunUntil(Seconds(5));
  ASSERT_TRUE(runtime_->ExitContainerByPod("p", true).ok());
  sim_.RunUntil(Seconds(6));
  EXPECT_EQ(PhaseOf("p"), PodPhase::kSucceeded);
  EXPECT_EQ(kubelet_->allocated().Get(kResourceCpu), 0);
  EXPECT_EQ(kubelet_->FreeDeviceUnits(), 2u);
  EXPECT_TRUE(kubelet_->UnitsOf("p").empty());
}

TEST_F(KubeletTest, FailedExitMarksPodFailed) {
  BoundPod("p", 1000, 0);
  sim_.RunUntil(Seconds(5));
  ASSERT_TRUE(runtime_->ExitContainerByPod("p", false).ok());
  sim_.RunUntil(Seconds(6));
  EXPECT_EQ(PhaseOf("p"), PodPhase::kFailed);
}

TEST_F(KubeletTest, ContainerExitingInItsStartStepIsNotRestarted) {
  // The container exits inside the engine step that starts it, so the
  // kubelet finishes the pod before the batched watch delivers the pod's
  // Running write. That stale snapshot must not adopt the pod again.
  int starts = 0;
  runtime_->SetStartHook([&](const ContainerInstance& inst) {
    ++starts;
    EXPECT_TRUE(runtime_->ExitContainer(inst.id, true).ok());
  });
  BoundPod("p", 1000, 1);
  sim_.RunUntil(Seconds(30));
  EXPECT_EQ(PhaseOf("p"), PodPhase::kSucceeded);
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(kubelet_->allocated().Get(kResourceCpu), 0);
  EXPECT_EQ(kubelet_->FreeDeviceUnits(), 2u);
}

TEST_F(KubeletTest, DeletionDuringSyncIsSafe) {
  BoundPod("p", 1000, 1);
  // Delete before the kubelet_sync delay elapses.
  sim_.RunUntil(Millis(50));
  ASSERT_TRUE(api_->pods().Delete("p").ok());
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(kubelet_->allocated().Get(kResourceCpu), 0);
  EXPECT_EQ(kubelet_->FreeDeviceUnits(), 2u);
  EXPECT_EQ(runtime_->running_containers(), 0u);
}

TEST_F(KubeletTest, IgnoresPodsBoundElsewhere) {
  Pod pod;
  pod.meta.name = "foreign";
  pod.status.node_name = "node-9";
  ASSERT_TRUE(api_->pods().Create(pod).ok());
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(PhaseOf("foreign"), PodPhase::kPending);
  EXPECT_EQ(runtime_->running_containers(), 0u);
}

TEST_F(KubeletTest, PodsBoundElsewhereAreNeverDelivered) {
  // The kubelet is the bare apiserver's only pod watcher, and its watch is
  // node-scoped: a foreign pod's whole life (create, update, delete)
  // costs it zero deliveries, while its own pod still reaches it.
  Pod foreign;
  foreign.meta.name = "foreign";
  foreign.status.node_name = "node-9";
  ASSERT_TRUE(api_->pods().Create(foreign).ok());
  auto stored = api_->pods().Get("foreign");
  ASSERT_TRUE(stored.ok());
  stored->status.phase = PodPhase::kRunning;
  ASSERT_TRUE(api_->pods().Update(*stored).ok());
  ASSERT_TRUE(api_->pods().Delete("foreign").ok());
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(api_->pods().watch_deliveries(), 0u);

  BoundPod("local", 100, 0);
  sim_.RunUntil(Seconds(5));
  EXPECT_GT(api_->pods().watch_deliveries(), 0u);
  EXPECT_EQ(PhaseOf("local"), PodPhase::kRunning);
}

TEST_F(KubeletTest, DoubleStartRejected) {
  EXPECT_FALSE(kubelet_->Start().ok());
}

TEST_F(KubeletTest, UnhealthyDeviceLeavesAllocatablePool) {
  sim_.Run();
  ASSERT_TRUE(plugin_->SetDeviceHealth("GPU-0", false).ok());
  ASSERT_TRUE(kubelet_->RefreshDevices().ok());
  sim_.Run();
  EXPECT_EQ(kubelet_->FreeDeviceUnits(), 1u);
  EXPECT_EQ(api_->nodes().Get("node-0")->capacity.Get(kResourceNvidiaGpu), 1);
  // The next pod gets the healthy device, not the sick one.
  BoundPod("p", 100, 1);
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(PhaseOf("p"), PodPhase::kRunning);
  EXPECT_EQ(kubelet_->UnitsOf("p")[0], "GPU-1");
}

TEST_F(KubeletTest, InUseDeviceTurningUnhealthyStaysAttached) {
  BoundPod("p", 100, 1);
  sim_.RunUntil(Seconds(5));
  ASSERT_EQ(kubelet_->UnitsOf("p")[0], "GPU-0");
  ASSERT_TRUE(plugin_->SetDeviceHealth("GPU-0", false).ok());
  ASSERT_TRUE(kubelet_->RefreshDevices().ok());
  sim_.RunUntil(Seconds(6));
  // The running pod is untouched; the unit just stops being allocatable.
  EXPECT_EQ(PhaseOf("p"), PodPhase::kRunning);
  EXPECT_EQ(kubelet_->FreeDeviceUnits(), 1u);
}

TEST_F(KubeletTest, DeviceRecoveryRestoresCapacity) {
  ASSERT_TRUE(plugin_->SetDeviceHealth("GPU-0", false).ok());
  ASSERT_TRUE(kubelet_->RefreshDevices().ok());
  ASSERT_TRUE(plugin_->SetDeviceHealth("GPU-0", true).ok());
  ASSERT_TRUE(kubelet_->RefreshDevices().ok());
  sim_.Run();
  EXPECT_EQ(kubelet_->FreeDeviceUnits(), 2u);
  EXPECT_EQ(api_->nodes().Get("node-0")->capacity.Get(kResourceNvidiaGpu), 2);
}

TEST_F(KubeletTest, HealthOnUnknownDeviceFails) {
  EXPECT_FALSE(plugin_->SetDeviceHealth("GPU-9", false).ok());
}

}  // namespace
}  // namespace ks::k8s
