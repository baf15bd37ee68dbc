#include <gtest/gtest.h>

#include "metrics/sampler.hpp"
#include "sim/simulation.hpp"
#include "sim/tick_hub.hpp"

namespace ks::metrics {
namespace {

TEST(PeriodicSampler, SamplesAtPeriod) {
  sim::Simulation sim;
  sim::TickHub hub(&sim);
  int value = 0;
  PeriodicSampler sampler(&hub, Seconds(1), [&] {
    return static_cast<double>(++value);
  });
  sampler.Start();
  sim.RunUntil(Seconds(5));
  sampler.Stop();
  ASSERT_EQ(sampler.series().size(), 5u);
  EXPECT_EQ(sampler.series()[0].at, Seconds(1));
  EXPECT_DOUBLE_EQ(sampler.series()[4].value, 5.0);
  EXPECT_DOUBLE_EQ(sampler.MaxValue(), 5.0);
  EXPECT_DOUBLE_EQ(sampler.MeanValue(), 3.0);
}

TEST(PeriodicSampler, StopPreventsFurtherSamples) {
  sim::Simulation sim;
  sim::TickHub hub(&sim);
  PeriodicSampler sampler(&hub, Seconds(1), [] { return 1.0; });
  sampler.Start();
  sim.RunUntil(Seconds(2));
  sampler.Stop();
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(sampler.series().size(), 2u);
}

TEST(PeriodicSampler, EmptySeriesStats) {
  sim::Simulation sim;
  sim::TickHub hub(&sim);
  PeriodicSampler sampler(&hub, Seconds(1), [] { return 1.0; });
  EXPECT_DOUBLE_EQ(sampler.MaxValue(), 0.0);
  EXPECT_DOUBLE_EQ(sampler.MeanValue(), 0.0);
}

}  // namespace
}  // namespace ks::metrics
