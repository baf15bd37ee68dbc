#include "gpu/nvml.hpp"

#include <gtest/gtest.h>

namespace ks::gpu {
namespace {

class NvmlTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  GpuDevice dev_{&sim_, GpuUuid("GPU-A")};
  GpuDevice dev2_{&sim_, GpuUuid("GPU-B")};
  sim::TickHub hub_{&sim_};
  NvmlMonitor mon_{&hub_, Seconds(1)};
  ContainerId c_{"c"};
};

TEST_F(NvmlTest, SamplesIdleDeviceAsZero) {
  mon_.Register(&dev_);
  mon_.Start();
  sim_.RunUntil(Seconds(3));
  mon_.Stop();
  const auto& s = mon_.SamplesFor(dev_.uuid());
  ASSERT_GE(s.size(), 2u);
  for (const auto& x : s) EXPECT_DOUBLE_EQ(x.gpu_util, 0.0);
}

TEST_F(NvmlTest, BusyDeviceReportsUtilization) {
  mon_.Register(&dev_);
  mon_.Start();
  // Busy for the first 500ms of each second via 500ms kernels at 1s marks.
  for (int i = 0; i < 3; ++i) {
    sim_.ScheduleAt(Seconds(i), [&] {
      dev_.Submit(c_, {Millis(500), 0.0, "k"}, nullptr);
    });
  }
  sim_.RunUntil(Seconds(3));
  mon_.Stop();
  const auto& s = mon_.SamplesFor(dev_.uuid());
  ASSERT_GE(s.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(s[i].gpu_util, 0.5, 0.01);
}

TEST_F(NvmlTest, MemorySampleTracksAllocation) {
  mon_.Register(&dev_);
  mon_.Start();
  ASSERT_TRUE(dev_.Allocate(c_, dev_.spec().memory_bytes / 2).ok());
  sim_.RunUntil(Seconds(2));
  mon_.Stop();
  const auto& s = mon_.SamplesFor(dev_.uuid());
  ASSERT_FALSE(s.empty());
  EXPECT_NEAR(s.back().mem_used, 0.5, 1e-9);
}

TEST_F(NvmlTest, AverageUtilizationAcrossActiveIgnoresIdleDevices) {
  mon_.Register(&dev_);
  mon_.Register(&dev2_);
  mon_.Start();
  dev_.Submit(c_, {Seconds(2), 0.0, "k"}, nullptr);
  sim_.RunUntil(Seconds(2));
  mon_.Stop();
  // dev2 never ran anything; the "active GPU" average counts only dev_.
  EXPECT_NEAR(mon_.AverageUtilizationAcrossActive(0), 1.0, 0.01);
  EXPECT_NEAR(mon_.AverageUtilization(dev2_.uuid()), 0.0, 1e-9);
}

TEST_F(NvmlTest, UnknownDeviceHasNoSamples) {
  EXPECT_TRUE(mon_.SamplesFor(GpuUuid("GPU-missing")).empty());
}

TEST_F(NvmlTest, StopHaltsSampling) {
  mon_.Register(&dev_);
  mon_.Start();
  sim_.RunUntil(Seconds(2));
  mon_.Stop();
  const auto before = mon_.SamplesFor(dev_.uuid()).size();
  sim_.RunUntil(Seconds(10));
  EXPECT_EQ(mon_.SamplesFor(dev_.uuid()).size(), before);
}

}  // namespace
}  // namespace ks::gpu
