#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace ks::serving {

/// Piecewise-constant aggregate request-rate envelope lambda(t), in
/// requests/second. This is the trace format of the load generator: a
/// diurnal curve or a flash crowd is sampled into constant segments, and
/// the thinning sampler stays exact over each segment (no rate drift
/// inside a step, which is what keeps the batched and per-request
/// generators drawing identical random sequences).
class RateEnvelope {
 public:
  struct Segment {
    Time start{0};      // segment is [start, next.start)
    double rate_hz = 0.0;
  };

  RateEnvelope() = default;
  /// `segments` must be sorted by start with segments.front().start == 0.
  explicit RateEnvelope(std::vector<Segment> segments);

  /// Constant rate — the steady mix.
  static RateEnvelope Steady(double rate_hz);

  /// Diurnal curve: a raised sinusoid between base_hz (trough) and peak_hz
  /// (crest) with the given period, sampled into `steps` constant segments
  /// per period. The envelope repeats (RateAt wraps modulo period).
  static RateEnvelope Diurnal(double base_hz, double peak_hz, Duration period,
                              int steps = 24);

  /// Flash crowd: steady base_hz, then at `at` a linear ramp over `ramp`
  /// up to peak_hz, held for `hold`, ramped back down. Ramps are sampled
  /// into `ramp_steps` constant segments each.
  static RateEnvelope FlashCrowd(double base_hz, double peak_hz, Time at,
                                 Duration ramp, Duration hold,
                                 int ramp_steps = 8);

  double RateAt(Time t) const;
  /// The thinning majorant: max segment rate.
  double max_rate_hz() const { return max_rate_hz_; }
  /// Period for repeating envelopes (Diurnal); zero means no wrap.
  Duration period() const { return period_; }
  const std::vector<Segment>& segments() const { return segments_; }

  /// Same shape, every rate multiplied by `factor` — per-service request
  /// mixes share one traffic shape at different volumes.
  RateEnvelope Scaled(double factor) const;

 private:
  std::vector<Segment> segments_;
  double max_rate_hz_ = 0.0;
  Duration period_{0};
};

/// Sentinel for "no further arrival".
inline constexpr Time kNoArrival{std::numeric_limits<std::int64_t>::max()};

/// The arrival core every stream consumes: Lewis-Shedler thinning of a
/// homogeneous Poisson process at the envelope's majorant rate. Each
/// Next() draws (exponential gap, uniform accept) pairs in a fixed order,
/// so two sequences built from the same envelope and seed yield identical
/// arrival timestamps — streams with different batching windows are
/// byte-equal at the arrival level BY CONSTRUCTION, not by tuning
/// (tests/serving/arrival_equivalence_test.cpp pins it).
class ThinningSequence {
 public:
  ThinningSequence(RateEnvelope envelope, std::uint64_t seed);

  /// Next arrival time, strictly increasing. kNoArrival once the sequence
  /// is exhausted (zero-rate envelope).
  Time Next();

 private:
  /// lambda(t), equal to RateEnvelope::RateAt. Candidates only move
  /// forward, so a cursor over the segments replaces the binary search; it
  /// rewinds when a repeating envelope wraps.
  double RateAt(Time t);

  RateEnvelope envelope_;
  Rng rng_;
  /// The majorant and the mean candidate gap at it, fixed per sequence.
  double max_rate_;
  Duration mean_gap_{0};
  std::size_t segment_ = 0;
  Time cursor_{0};
};

/// Batched arrival stream: aggregates every arrival landing inside one
/// `window` into a single engine event fired at the window's end, so N
/// simulated clients cost the engine one event per non-empty window
/// instead of one per request. Empty windows are skipped entirely (the
/// next event is armed at the window containing the next arrival), so an
/// idle service costs zero events.
///
/// window <= 0 degenerates to per-request mode: one singleton batch per
/// arrival, delivered at the arrival time — one engine event per request,
/// what plain Poisson clients cost, and the sequence the batched windows
/// are checked against.
class BatchedArrivalStream {
 public:
  /// `arrivals` is non-empty and ascending; every time is <= Now() (the
  /// batch is delivered at the window end, after the arrivals happened).
  using BatchFn = std::function<void(const std::vector<Time>& arrivals)>;

  BatchedArrivalStream(sim::Simulation* sim, RateEnvelope envelope,
                       std::uint64_t seed, Time until, Duration window,
                       BatchFn fn);
  ~BatchedArrivalStream() { Stop(); }

  BatchedArrivalStream(const BatchedArrivalStream&) = delete;
  BatchedArrivalStream& operator=(const BatchedArrivalStream&) = delete;

  /// Starts the stream. After Stop() it resumes the same sequence at
  /// Now(): arrivals that fell while stopped, and those of the window the
  /// stop left open, are never generated. A no-op while running.
  void Start();
  void Stop();

  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t batches() const { return batches_; }
  /// Engine events this generator scheduled: one per non-empty window in
  /// batched mode, one per arrival in per-request mode.
  std::uint64_t engine_events() const { return engine_events_; }

 private:
  void ArmFor(Time arrival);
  void OnWindowEnd(Time boundary);

  sim::Simulation* sim_;
  ThinningSequence seq_;
  Time until_;
  Duration window_;
  BatchFn fn_;
  Time next_{0};  // next not-yet-delivered arrival from the sequence
  sim::EventId event_ = sim::kInvalidEvent;
  std::vector<Time> batch_;  // reused buffer; capacity survives batches
  std::uint64_t arrivals_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t engine_events_ = 0;
  bool started_ = false;
  bool primed_ = false;  // next_ holds a drawn arrival
};

}  // namespace ks::serving
