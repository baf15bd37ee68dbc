#include "common/rng.hpp"

#include <algorithm>
#include <cassert>

namespace ks {

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  if (stddev <= 0.0) return mean;
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::TruncatedNormal(double mean, double stddev, double lo, double hi) {
  assert(lo <= hi);
  if (stddev <= 0.0) return std::clamp(mean, lo, hi);
  // Re-sample a bounded number of times, then clamp. Clamping only engages
  // for pathological (mean, stddev) far outside the window, where the
  // distribution shape is meaningless anyway.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double x = Normal(mean, stddev);
    if (x >= lo && x <= hi) return x;
  }
  return std::clamp(mean, lo, hi);
}

bool Rng::Chance(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

}  // namespace ks
