#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>

#include "common/time.hpp"

namespace ks {

/// Seeded random source shared by the workload generators. Every experiment
/// constructs its own Rng from an explicit seed so that runs are
/// reproducible bit-for-bit; nothing in the library reads global entropy.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi). Inline with ExponentialInterarrival: the
  /// arrival generators draw both once per thinning candidate.
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Normal sample with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Normal sample truncated (by re-sampling) to [lo, hi]. Used for GPU
  /// demand distributions, which must stay within (0, 1].
  double TruncatedNormal(double mean, double stddev, double lo, double hi);

  /// Exponential sample with the given mean — inter-arrival times of a
  /// Poisson process (paper §5.3: "job inter-arrival time follows a Poisson
  /// process").
  Duration ExponentialInterarrival(Duration mean) {
    assert(mean.count() > 0);
    std::exponential_distribution<double> dist(
        1.0 / static_cast<double>(mean.count()));
    const double us = dist(engine_);
    return Duration{std::max<std::int64_t>(1, static_cast<std::int64_t>(us))};
  }

  /// Bernoulli trial.
  bool Chance(double p);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ks
