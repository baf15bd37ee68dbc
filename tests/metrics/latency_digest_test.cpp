#include "metrics/latency_digest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

// Global operator-new instrumentation for the zero-allocation property.
// Counting is the only side effect; the real allocator still serves every
// request, so the rest of the binary is unaffected.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ks::metrics {
namespace {

// Exact nearest-rank quantile over raw microsecond samples — the oracle
// the digest's bounded-error claim is checked against. (common::Percentile
// interpolates linearly, which is a different statistic; the digest's
// contract is nearest-rank.)
std::uint64_t ExactNearestRank(std::vector<std::uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return samples[rank - 1];
}

TEST(LatencyDigestTest, EmptyDigestAnswersZero) {
  LatencyDigest d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.Quantile(0.5), Duration{0});
  EXPECT_EQ(d.Min(), Duration{0});
  EXPECT_EQ(d.Max(), Duration{0});
  EXPECT_DOUBLE_EQ(d.MeanSeconds(), 0.0);
}

TEST(LatencyDigestTest, SmallValuesAreExact) {
  // The first two powers of two are represented exactly (bucket width 1us).
  LatencyDigest d;
  for (std::int64_t v = 0; v < 64; ++v) d.Record(Duration{v});
  EXPECT_EQ(d.count(), 64u);
  EXPECT_EQ(d.Quantile(0.5), Duration{31});   // rank 32 -> sample 31
  EXPECT_EQ(d.Quantile(1.0), Duration{63});
  EXPECT_EQ(d.Min(), Duration{0});
  EXPECT_EQ(d.Max(), Duration{63});
}

TEST(LatencyDigestTest, NegativeDurationsClampToZero) {
  LatencyDigest d;
  d.Record(Duration{-5});
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(d.Quantile(1.0), Duration{0});
}

TEST(LatencyDigestTest, IndexAndLowerEdgeRoundTrip) {
  // LowerEdge(IndexFor(v)) <= v for all v, and LowerEdge is the smallest
  // value mapping to its bucket.
  const std::uint64_t probes[] = {0,  1,   31,   32,   33,   63,  64,
                                  65, 100, 1000, 4095, 4096, 1ull << 20,
                                  (1ull << 40) + 12345, ~0ull};
  for (std::uint64_t v : probes) {
    const int idx = LatencyDigest::IndexFor(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, LatencyDigest::kBuckets);
    const std::uint64_t edge = LatencyDigest::LowerEdge(idx);
    EXPECT_LE(edge, v) << "v=" << v;
    if (edge > 0) {
      EXPECT_LT(LatencyDigest::IndexFor(edge - 1), idx) << "v=" << v;
    }
    EXPECT_EQ(LatencyDigest::IndexFor(edge), idx) << "v=" << v;
  }
  // IndexFor is monotone, so its value at both ends of every bucket pins
  // the whole value -> bucket map.
  for (int idx = 0; idx + 1 < LatencyDigest::kBuckets; ++idx) {
    const std::uint64_t edge = LatencyDigest::LowerEdge(idx);
    const std::uint64_t next = LatencyDigest::LowerEdge(idx + 1);
    ASSERT_LT(edge, next) << "idx=" << idx;
    EXPECT_EQ(LatencyDigest::IndexFor(edge), idx);
    EXPECT_EQ(LatencyDigest::IndexFor(next - 1), idx);
  }
}

TEST(LatencyDigestTest, QuantileErrorIsBoundedVsExactSort) {
  // Property: for the rank-selected sample x and answer a = Quantile(q):
  //     a <= x <= a * (1 + 1/kSubBuckets) + 1us
  // over randomized heavy-tailed sequences.
  for (std::uint64_t seed : {7ull, 21ull, 99ull, 1234ull, 777777ull}) {
    ks::Rng rng(seed);
    LatencyDigest d;
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i) {
      // Mix of scales: microseconds to minutes, plus a heavy tail.
      double v = rng.Uniform(0.0, 1.0);
      std::uint64_t us;
      if (v < 0.5) {
        us = static_cast<std::uint64_t>(rng.Uniform(0.0, 5000.0));
      } else if (v < 0.9) {
        us = static_cast<std::uint64_t>(rng.Uniform(5e3, 2e6));
      } else {
        us = static_cast<std::uint64_t>(rng.Uniform(2e6, 6e7));
      }
      samples.push_back(us);
      d.Record(Duration{static_cast<std::int64_t>(us)});
    }
    for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
      const auto exact = ExactNearestRank(samples, q);
      const auto approx =
          static_cast<std::uint64_t>(d.Quantile(q).count());
      EXPECT_LE(approx, exact) << "seed=" << seed << " q=" << q;
      const double bound =
          static_cast<double>(approx) *
              (1.0 + 1.0 / LatencyDigest::kSubBuckets) +
          1.0;
      EXPECT_LE(static_cast<double>(exact), bound)
          << "seed=" << seed << " q=" << q;
    }
  }
}

TEST(LatencyDigestTest, MergeIsExactAssociativeAndCommutative) {
  ks::Rng rng(42);
  std::vector<LatencyDigest> parts(3);
  LatencyDigest all;  // every sample recorded directly
  for (int i = 0; i < 9000; ++i) {
    const auto us =
        static_cast<std::int64_t>(rng.Uniform(0.0, 1e7));
    parts[i % 3].Record(Duration{us});
    all.Record(Duration{us});
  }
  // (a + b) + c
  LatencyDigest abc = parts[0];
  abc.Merge(parts[1]);
  abc.Merge(parts[2]);
  // c + (b + a)
  LatencyDigest cba = parts[2];
  LatencyDigest ba = parts[1];
  ba.Merge(parts[0]);
  cba.Merge(ba);
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(abc.Quantile(q), cba.Quantile(q)) << "q=" << q;
    EXPECT_EQ(abc.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(abc.count(), all.count());
  EXPECT_EQ(abc.SumLatency(), all.SumLatency());
  EXPECT_EQ(abc.Min(), all.Min());
  EXPECT_EQ(abc.Max(), all.Max());
}

TEST(LatencyDigestTest, QuantileUnionMatchesMaterializedMerge) {
  ks::Rng rng(7);
  LatencyDigest a, b;
  for (int i = 0; i < 5000; ++i) {
    a.Record(Duration{static_cast<std::int64_t>(rng.Uniform(0.0, 1e6))});
    b.Record(Duration{static_cast<std::int64_t>(rng.Uniform(0.0, 1e8))});
  }
  LatencyDigest merged = a;
  merged.Merge(b);
  for (double q : {0.01, 0.5, 0.99, 0.999}) {
    EXPECT_EQ(LatencyDigest::QuantileUnion(a, b, q), merged.Quantile(q))
        << "q=" << q;
    EXPECT_EQ(LatencyDigest::QuantileUnion(b, a, q), merged.Quantile(q))
        << "q=" << q;
  }
}

TEST(LatencyDigestTest, RecordAndQuantileAreAllocationFree) {
  LatencyDigest d;
  ks::Rng rng(3);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.Uniform(0.0, 1e9)));
  }
  const std::uint64_t before = g_allocations.load();
  for (std::int64_t v : values) d.Record(Duration{v});
  (void)d.Quantile(0.99);
  LatencyDigest other;
  other.Merge(d);
  (void)LatencyDigest::QuantileUnion(d, other, 0.999);
  // The windowed record-and-check path admission runs per request.
  WindowedLatencyDigest w(Seconds(1.0));
  w.SetMark(500);
  Time now{0};
  for (std::int64_t v : values) {
    now += Millis(1);
    w.Record(now, Duration{v});
    (void)w.QuantileReachesMark(now, 0.99);
  }
  w.SetMark(600);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "digest update/query path allocated " << (after - before)
      << " times";
}

TEST(WindowedLatencyDigestTest, RotationKeepsOneToTwoWindowsOfHistory) {
  WindowedLatencyDigest w(Seconds(5.0));
  // Epoch [0, 5s): slow samples.
  w.Record(Seconds(1.0), Millis(400));
  w.Record(Seconds(2.0), Millis(400));
  EXPECT_EQ(w.WindowCount(Seconds(2.0)), 2u);
  // Epoch [5s, 10s): fast samples; the slow epoch still counts.
  w.Record(Seconds(6.0), Millis(10));
  EXPECT_EQ(w.WindowCount(Seconds(6.0)), 3u);
  EXPECT_GE(w.Quantile(Seconds(6.0), 0.99), Millis(300));
  // Epoch [10s, 15s): the slow epoch has aged out of the union.
  w.Record(Seconds(11.0), Millis(10));
  EXPECT_EQ(w.WindowCount(Seconds(11.0)), 2u);
  EXPECT_LT(w.Quantile(Seconds(11.0), 0.99), Millis(50));
}

TEST(WindowedLatencyDigestTest, LongIdleDropsBothEpochs) {
  WindowedLatencyDigest w(Seconds(5.0));
  w.Record(Seconds(1.0), Millis(400));
  // Quiet for many windows: everything is stale.
  EXPECT_EQ(w.WindowCount(Seconds(60.0)), 0u);
  EXPECT_EQ(w.Quantile(Seconds(60.0), 0.99), Duration{0});
  // Recording re-anchors cleanly on the current window grid.
  w.Record(Seconds(61.0), Millis(20));
  EXPECT_EQ(w.WindowCount(Seconds(61.0)), 1u);
}

// The marked-count answer against its definition: the bucket of the
// windowed quantile, found by scanning, at or above the mark.
bool ScannedReachesMark(WindowedLatencyDigest& w, Time now, double q,
                        int mark) {
  const auto v = static_cast<std::uint64_t>(w.Quantile(now, q).count());
  return LatencyDigest::IndexFor(v) >= mark;
}

TEST(WindowedLatencyDigestTest, MarkedCountMatchesScannedQuantile) {
  // Marks at both ends (0, and kBuckets, which no sample reaches), at the
  // edge of the exact range, and across the latencies drawn below.
  const int marks[] = {0,   1,   31,  32,  63,  64,
                       400, 500, 600, 700, 750, LatencyDigest::kBuckets - 1,
                       LatencyDigest::kBuckets};
  const int n_marks = static_cast<int>(std::size(marks));
  const int top = LatencyDigest::IndexFor(10'000'000);  // 10 s
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4242ull}) {
    for (int m = 0; m < n_marks; ++m) {
      ks::Rng rng(seed * 7919 + static_cast<std::uint64_t>(m));
      int mark = marks[m];
      WindowedLatencyDigest w(Seconds(1.0));
      w.SetMark(mark);
      Time now{0};
      // An empty window's quantile is 0, in bucket 0.
      ASSERT_EQ(w.QuantileReachesMark(now, 0.99),
                ScannedReachesMark(w, now, 0.99, mark));
      for (int step = 0; step < 2000; ++step) {
        if (step == 1000) {
          // Move the mark over a digest holding both epochs.
          mark = marks[(m + 5) % n_marks];
          w.SetMark(mark);
        }
        // Mostly short steps, so each 1 s epoch sees hundreds of samples
        // and rotates every few hundred steps; now and then an idle gap
        // longer than two windows drops both epochs.
        now += rng.Chance(0.003) ? Seconds(rng.Uniform(2.0, 4.0))
                                 : Micros(rng.UniformInt(0, 8000));
        if (rng.Chance(0.9)) {
          const double kind = rng.Uniform(0.0, 1.0);
          std::int64_t us;
          if (kind < 0.7) {  // log-uniform over [0, 10 s]
            us = static_cast<std::int64_t>(
                     std::exp(rng.Uniform(0.0, std::log(1e7 + 1.0)))) -
                 1;
          } else if (kind < 0.9) {  // on a bucket's lower edge, or below it
            const int idx = static_cast<int>(rng.UniformInt(0, top));
            const auto edge =
                static_cast<std::int64_t>(LatencyDigest::LowerEdge(idx));
            us = rng.Chance(0.5) ? edge : edge - 1;
          } else {  // negative: clamps to 0
            us = -rng.UniformInt(1, 1'000'000);
          }
          w.Record(now, Duration{us});
        }
        for (double q : {0.5, 0.99, 1.0}) {
          ASSERT_EQ(w.QuantileReachesMark(now, q),
                    ScannedReachesMark(w, now, q, mark))
              << "seed=" << seed << " mark=" << mark << " step=" << step
              << " q=" << q << " window=" << w.WindowCount(now);
        }
      }
    }
  }
}

TEST(WindowedLatencyDigestTest, ZeroWindowNeverRotates) {
  WindowedLatencyDigest w(Duration{0});
  w.Record(Seconds(1.0), Millis(100));
  w.Record(Seconds(1000.0), Millis(100));
  EXPECT_EQ(w.WindowCount(Seconds(2000.0)), 2u);
}

}  // namespace
}  // namespace ks::metrics
