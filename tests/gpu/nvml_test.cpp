#include "gpu/nvml.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace ks::gpu {
namespace {

class NvmlTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  GpuDevice dev_{&sim_, GpuUuid("GPU-A")};
  GpuDevice dev2_{&sim_, GpuUuid("GPU-B")};
  GpuDevice dev3_{&sim_, GpuUuid("GPU-C")};
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

TEST_F(NvmlTest, PartialSecondsSplitAcrossSamples) {
  mon_.Register(&dev_);
  mon_.Start();
  sim_.ScheduleAt(Millis(500), [&] {
    dev_.Submit(c_, {Seconds(2), 0.0, "k"}, nullptr);
  });
  sim_.RunUntil(Seconds(3));
  mon_.Stop();
  const auto s = mon_.SamplesFor(dev_.uuid());
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0].gpu_util, 0.5);
  EXPECT_DOUBLE_EQ(s[1].gpu_util, 1.0);
  EXPECT_DOUBLE_EQ(s[2].gpu_util, 0.5);
  EXPECT_EQ(dev_.utilization().TotalBusy(), Seconds(2));
}

TEST_F(NvmlTest, AggregatesEqualFullHistory) {
  const std::vector<GpuDevice*> devices = {&dev_, &dev2_, &dev3_};
  for (GpuDevice* dev : devices) mon_.Register(dev);
  std::map<GpuUuid, std::vector<NvmlSample>> all;
  mon_.SetSampleFn([&all](const GpuUuid& uuid, const NvmlSample& s) {
    all[uuid].push_back(s);
  });
  mon_.Start();
  // dev_ stays idle; dev2_ is busy from 0 s, dev3_ from 5 s, each with
  // kernels that cut across sample boundaries. dev3_'s last kernel ends at
  // 18.05 s, so its last sample reads 0 while it still counts as active.
  for (int i = 0; i < 28; ++i) {
    sim_.ScheduleAt(Millis(700 * i), [&] {
      dev2_.Submit(c_, {Millis(300), 0.0, "k"}, nullptr);
    });
  }
  for (int i = 0; i < 15; ++i) {
    sim_.ScheduleAt(Seconds(5) + Millis(900 * i), [&] {
      dev3_.Submit(c_, {Millis(450), 0.0, "k"}, nullptr);
    });
  }
  sim_.RunUntil(Seconds(20));
  mon_.Stop();

  // The full-history formulas the aggregates replace.
  const std::size_t ticks = 20;
  for (GpuDevice* dev : devices) {
    const std::vector<NvmlSample>& series = all[dev->uuid()];
    ASSERT_EQ(series.size(), ticks);
    double total = 0.0;
    for (const NvmlSample& x : series) total += x.gpu_util;
    EXPECT_EQ(mon_.AverageUtilization(dev->uuid()),
              total / static_cast<double>(series.size()));
  }
  std::vector<bool> ever_active(devices.size(), false);
  double util_total = 0.0;
  std::size_t util_samples = 0;
  for (std::size_t i = 0; i < ticks; ++i) {
    double total = 0.0;
    int active = 0;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const double u = all[devices[d]->uuid()][i].gpu_util;
      if (u > 0.0) ever_active[d] = true;
      if (ever_active[d]) {
        total += u;
        ++active;
      }
    }
    if (active > 0) {
      util_total += total / active;
      ++util_samples;
    }
  }
  EXPECT_EQ(mon_.MeanActiveUtilization(), util_total / util_samples);
  EXPECT_EQ(mon_.AverageUtilization(dev_.uuid()), 0.0);
  EXPECT_GT(mon_.MeanActiveUtilization(), 0.0);
}

TEST_F(NvmlTest, WindowIsBounded) {
  mon_.Register(&dev_);
  mon_.Start();
  const auto ticks = static_cast<std::int64_t>(10 * NvmlMonitor::kWindow);
  sim_.RunUntil(Seconds(ticks));
  mon_.Stop();
  const auto s = mon_.SamplesFor(dev_.uuid());
  ASSERT_EQ(s.size(), NvmlMonitor::kWindow);
  EXPECT_EQ(s.back().at, Seconds(ticks));
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_EQ(s[i].at, s[i - 1].at + Seconds(1));
  }
}

TEST_F(NvmlTest, RestartDoesNotCountStoppedBusyTime) {
  mon_.Register(&dev_);
  mon_.Start();
  sim_.RunUntil(Seconds(2));
  mon_.Stop();
  dev_.Submit(c_, {Seconds(8), 0.0, "k"}, nullptr);
  sim_.RunUntil(Seconds(10));
  mon_.Start();
  sim_.RunUntil(Seconds(11));
  mon_.Stop();
  const auto s = mon_.SamplesFor(dev_.uuid());
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.back().at, Seconds(11));
  EXPECT_DOUBLE_EQ(s.back().gpu_util, 0.0);
  EXPECT_DOUBLE_EQ(mon_.AverageUtilization(dev_.uuid()), 0.0);
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
