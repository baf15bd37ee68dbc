#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/time.hpp"

namespace ks::metrics {

/// Fixed-size streaming latency estimator (HDR-histogram-style log-bucket
/// layout): p50/p99/p99.9 over microsecond-resolution samples with bounded
/// relative error, O(1) allocation-free updates, and exact merges.
///
/// Why not a sorted vector: the serving layer records one latency per
/// request, and the north star is millions of clients — per-request storage
/// must be O(1), not O(requests). Why not a t-digest: merges of t-digests
/// are approximate and order-dependent, which would make cross-node SLO
/// aggregation depend on merge order; log-bucket histograms merge by
/// element-wise addition, which is exact, associative and commutative (the
/// property test pins this).
///
/// Layout: values are bucketed by their binary magnitude with kSubBuckets
/// linear sub-buckets per power of two, so the relative width of any bucket
/// is at most 1/kSubBuckets (~3.1%). Quantiles answer with the bucket's
/// lower edge, hence for the rank-selected sample x:
///     Quantile(q) <= x <= Quantile(q) * (1 + 1/kSubBuckets) + 1us
/// The full index range covers every representable std::uint64_t count of
/// microseconds in kBuckets = 1920 fixed slots (~15 KiB) — no resizing,
/// ever, which is what "zero allocation on the update path" means.
class LatencyDigest {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 32
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSubBuckets;  // 1920

  /// Records one latency sample and returns the index of its bucket.
  /// Negative durations clamp to zero (they cannot occur for
  /// arrival->finish spans, but the digest must never index out of range).
  /// Allocation-free and noexcept by construction.
  int Record(Duration d) noexcept {
    const std::int64_t raw = d.count();
    const std::uint64_t v = raw < 0 ? 0u : static_cast<std::uint64_t>(raw);
    const int idx = IndexFor(v);
    ++counts_[idx];
    ++count_;
    sum_us_ += v;
    if (v < min_us_) min_us_ = v;
    if (v > max_us_) max_us_ = v;
    return idx;
  }

  /// Element-wise addition — the exact merge that makes per-node digests
  /// aggregate into a cluster digest with no precision loss.
  void Merge(const LatencyDigest& other) noexcept {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_us_ += other.sum_us_;
    if (other.min_us_ < min_us_) min_us_ = other.min_us_;
    if (other.max_us_ > max_us_) max_us_ = other.max_us_;
  }

  void Clear() noexcept {
    counts_.fill(0);
    count_ = 0;
    sum_us_ = 0;
    min_us_ = ~0ull;
    max_us_ = 0;
  }

  /// Nearest-rank quantile, q in [0, 1]: the lower edge of the bucket
  /// holding the ceil(q * count)-th smallest sample. Zero when empty.
  Duration Quantile(double q) const {
    return QuantileOver(*this, nullptr, q);
  }
  double QuantileSeconds(double q) const { return ToSeconds(Quantile(q)); }

  /// Quantile over the union of two digests without materializing the
  /// merge — the windowed estimator's p99 covers the current and the
  /// previous epoch, and a 15 KiB copy per query would dwarf the update
  /// cost this class exists to avoid.
  static Duration QuantileUnion(const LatencyDigest& a, const LatencyDigest& b,
                                double q) {
    return QuantileOver(a, &b, q);
  }

  std::uint64_t count() const { return count_; }
  /// Samples in bucket `idx` (>= 0) and above.
  std::uint64_t CountFrom(int idx) const noexcept {
    std::uint64_t n = 0;
    for (int i = idx; i < kBuckets; ++i) n += counts_[i];
    return n;
  }
  Duration SumLatency() const {
    return Duration{static_cast<std::int64_t>(sum_us_)};
  }
  double MeanSeconds() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_us_) / 1e6 /
                             static_cast<double>(count_);
  }
  Duration Min() const {
    return count_ == 0 ? Duration{0}
                       : Duration{static_cast<std::int64_t>(min_us_)};
  }
  Duration Max() const {
    return Duration{static_cast<std::int64_t>(max_us_)};
  }

  /// Bucket index of a microsecond value. Exposed for the property tests.
  static int IndexFor(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<int>(v);
    // v >= 32, so msb >= kSubBits.
    const int msb = static_cast<int>(std::bit_width(v)) - 1;
    const int shift = msb - kSubBits;
    return (shift + 1) * kSubBuckets +
           static_cast<int>((v >> shift) & (kSubBuckets - 1));
  }

  /// Smallest microsecond value mapping to bucket `idx` — the quantile
  /// representative.
  static std::uint64_t LowerEdge(int idx) noexcept {
    if (idx < 2 * kSubBuckets) return static_cast<std::uint64_t>(idx);
    const int shift = idx / kSubBuckets - 1;
    const std::uint64_t sub = static_cast<std::uint64_t>(idx % kSubBuckets);
    return (kSubBuckets + sub) << shift;
  }

  /// The 1-based rank of the sample the q-quantile selects among `total`
  /// samples (total > 0): ceil(q * total), clamped to [1, total].
  static std::uint64_t NearestRank(std::uint64_t total, double q) noexcept {
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total));
    if (static_cast<double>(rank) < q * static_cast<double>(total)) ++rank;
    if (rank == 0) rank = 1;
    if (rank > total) rank = total;
    return rank;
  }

 private:
  static Duration QuantileOver(const LatencyDigest& a, const LatencyDigest* b,
                               double q) {
    const std::uint64_t total = a.count_ + (b != nullptr ? b->count_ : 0);
    if (total == 0) return Duration{0};
    const std::uint64_t rank = NearestRank(total, q);
    std::uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cum += a.counts_[i] + (b != nullptr ? b->counts_[i] : 0);
      if (cum >= rank) {
        return Duration{static_cast<std::int64_t>(LowerEdge(i))};
      }
    }
    return Duration{static_cast<std::int64_t>(LowerEdge(kBuckets - 1))};
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_us_ = 0;
  std::uint64_t min_us_ = ~0ull;
  std::uint64_t max_us_ = 0;
};

/// Sliding-window view over a LatencyDigest: two rotating epochs, queried
/// as their union, so "observed p99" always covers between one and two
/// windows of history. Rotation happens lazily on access — the estimator
/// owes the simulation engine no events, matching the TickHub discipline
/// that periodic instruments must not keep private timers.
///
/// A threshold question — "is the quantile's bucket at or above bucket
/// `mark`?" — is O(1): each epoch counts its samples at or above the mark
/// as they are recorded. The q-quantile is the rank-th smallest sample
/// (LatencyDigest::NearestRank), so its bucket reaches the mark exactly
/// when more than total - rank samples do.
class WindowedLatencyDigest {
 public:
  explicit WindowedLatencyDigest(Duration window) : window_(window) {}

  void Record(Time now, Duration d) noexcept {
    MaybeRotate(now);
    if (current_.Record(d) >= mark_) ++above_current_;
  }

  /// Sets the bucket QuantileReachesMark compares against, in
  /// [0, kBuckets]; kBuckets (the default) is a mark no sample reaches.
  /// Samples already held are recounted from their buckets.
  void SetMark(int mark) noexcept {
    mark_ = mark;
    above_current_ = current_.CountFrom(mark);
    above_previous_ = previous_.CountFrom(mark);
  }

  /// True iff the bucket of Quantile(now, q) is at or above the mark.
  /// Scans no buckets. An empty window's quantile is 0, in bucket 0.
  bool QuantileReachesMark(Time now, double q) noexcept {
    MaybeRotate(now);
    const std::uint64_t total = current_.count() + previous_.count();
    if (total == 0) return mark_ == 0;
    return above_current_ + above_previous_ >
           total - LatencyDigest::NearestRank(total, q);
  }

  Duration Quantile(Time now, double q) {
    MaybeRotate(now);
    return LatencyDigest::QuantileUnion(current_, previous_, q);
  }
  double QuantileSeconds(Time now, double q) {
    return ToSeconds(Quantile(now, q));
  }

  /// Samples inside the current + previous epoch.
  std::uint64_t WindowCount(Time now) {
    MaybeRotate(now);
    return current_.count() + previous_.count();
  }

  Duration window() const { return window_; }

 private:
  void MaybeRotate(Time now) noexcept {
    if (window_.count() <= 0) return;
    if (now < epoch_ + window_) return;
    if (now >= epoch_ + window_ + window_) {
      // Idle long enough that both epochs are stale: drop everything and
      // re-anchor the epoch grid at the current window boundary.
      current_.Clear();
      previous_.Clear();
      above_current_ = 0;
      above_previous_ = 0;
      epoch_ = Time{(now.count() / window_.count()) * window_.count()};
      return;
    }
    previous_ = current_;
    current_.Clear();
    above_previous_ = above_current_;
    above_current_ = 0;
    epoch_ += window_;
  }

  Duration window_;
  Time epoch_{0};
  LatencyDigest current_;
  LatencyDigest previous_;
  int mark_ = LatencyDigest::kBuckets;
  /// Samples of each epoch in bucket mark_ or above.
  std::uint64_t above_current_ = 0;
  std::uint64_t above_previous_ = 0;
};

}  // namespace ks::metrics
