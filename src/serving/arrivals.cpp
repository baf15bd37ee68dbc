#include "serving/arrivals.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ks::serving {

RateEnvelope::RateEnvelope(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  assert(!segments_.empty());
  assert(segments_.front().start == Time{0});
  for (const Segment& s : segments_) {
    assert(s.rate_hz >= 0.0);
    max_rate_hz_ = std::max(max_rate_hz_, s.rate_hz);
  }
}

RateEnvelope RateEnvelope::Steady(double rate_hz) {
  return RateEnvelope({{Time{0}, rate_hz}});
}

RateEnvelope RateEnvelope::Diurnal(double base_hz, double peak_hz,
                                   Duration period, int steps) {
  assert(steps > 0);
  assert(period.count() > 0);
  std::vector<Segment> segs;
  segs.reserve(static_cast<std::size_t>(steps));
  const double amp = (peak_hz - base_hz) * 0.5;
  for (int i = 0; i < steps; ++i) {
    // Midpoint-sampled raised sinusoid: trough at t=0, crest at period/2.
    const double phase = 2.0 * M_PI * (static_cast<double>(i) + 0.5) /
                         static_cast<double>(steps);
    const double rate = base_hz + amp * (1.0 - std::cos(phase));
    segs.push_back({Time{period.count() * i / steps}, rate});
  }
  RateEnvelope env(std::move(segs));
  env.period_ = period;
  return env;
}

RateEnvelope RateEnvelope::FlashCrowd(double base_hz, double peak_hz, Time at,
                                      Duration ramp, Duration hold,
                                      int ramp_steps) {
  assert(ramp_steps > 0);
  std::vector<Segment> segs;
  segs.push_back({Time{0}, base_hz});
  const double rise = peak_hz - base_hz;
  for (int i = 0; i < ramp_steps; ++i) {
    const double frac = (static_cast<double>(i) + 0.5) /
                        static_cast<double>(ramp_steps);
    segs.push_back(
        {at + Duration{ramp.count() * i / ramp_steps}, base_hz + rise * frac});
  }
  segs.push_back({at + ramp, peak_hz});
  for (int i = 0; i < ramp_steps; ++i) {
    const double frac = (static_cast<double>(i) + 0.5) /
                        static_cast<double>(ramp_steps);
    segs.push_back({at + ramp + hold + Duration{ramp.count() * i / ramp_steps},
                    peak_hz - rise * frac});
  }
  segs.push_back({at + ramp + hold + ramp, base_hz});
  return RateEnvelope(std::move(segs));
}

double RateEnvelope::RateAt(Time t) const {
  if (segments_.empty()) return 0.0;
  if (period_.count() > 0) {
    t = Time{t.count() % period_.count()};
  }
  // Last segment whose start <= t.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Time value, const Segment& s) { return value < s.start; });
  assert(it != segments_.begin());
  return std::prev(it)->rate_hz;
}

RateEnvelope RateEnvelope::Scaled(double factor) const {
  RateEnvelope out = *this;
  out.max_rate_hz_ = 0.0;
  for (Segment& s : out.segments_) {
    s.rate_hz *= factor;
    out.max_rate_hz_ = std::max(out.max_rate_hz_, s.rate_hz);
  }
  return out;
}

ThinningSequence::ThinningSequence(RateEnvelope envelope, std::uint64_t seed)
    : envelope_(std::move(envelope)),
      rng_(seed),
      max_rate_(envelope_.max_rate_hz()) {
  if (max_rate_ > 0.0) mean_gap_ = Seconds(1.0 / max_rate_);
}

Time ThinningSequence::Next() {
  if (max_rate_ <= 0.0) return kNoArrival;
  for (;;) {
    // Lewis-Shedler: candidate gaps at the majorant rate, accepted with
    // probability lambda(t)/majorant. One exponential + one uniform draw
    // per candidate, in this exact order — the contract both generators
    // share.
    Duration gap = rng_.ExponentialInterarrival(mean_gap_);
    // The sim clock is integral microseconds; a zero-rounded gap must
    // still advance time or two arrivals would coincide.
    if (gap.count() <= 0) gap = Duration{1};
    cursor_ += gap;
    const double u = rng_.Uniform(0.0, 1.0);
    if (u * max_rate_ < RateAt(cursor_)) return cursor_;
  }
}

double ThinningSequence::RateAt(Time t) {
  const std::vector<RateEnvelope::Segment>& segs = envelope_.segments();
  const Duration period = envelope_.period();
  if (period.count() > 0) t = Time{t.count() % period.count()};
  if (t < segs[segment_].start) segment_ = 0;  // the envelope wrapped
  while (segment_ + 1 < segs.size() && segs[segment_ + 1].start <= t) {
    ++segment_;
  }
  return segs[segment_].rate_hz;
}

BatchedArrivalStream::BatchedArrivalStream(sim::Simulation* sim,
                                           RateEnvelope envelope,
                                           std::uint64_t seed, Time until,
                                           Duration window, BatchFn fn)
    : sim_(sim),
      seq_(std::move(envelope), seed),
      until_(until),
      window_(window),
      fn_(std::move(fn)) {
  assert(sim_ != nullptr);
}

void BatchedArrivalStream::Start() {
  if (started_) return;
  started_ = true;
  if (!primed_) {
    primed_ = true;
    next_ = seq_.Next();
  } else {
    while (next_ < sim_->Now()) next_ = seq_.Next();
  }
  if (next_ < until_) ArmFor(next_);
}

void BatchedArrivalStream::Stop() {
  if (event_ != sim::kInvalidEvent) {
    sim_->Cancel(event_);
    event_ = sim::kInvalidEvent;
  }
  started_ = false;
}

void BatchedArrivalStream::ArmFor(Time arrival) {
  ++engine_events_;
  if (window_.count() <= 0) {
    // Per-request (batch = 1) mode: the event lands exactly at the arrival.
    event_ = sim_->ScheduleAt(arrival, [this] {
      event_ = sim::kInvalidEvent;
      batch_.clear();
      batch_.push_back(next_);
      ++arrivals_;
      ++batches_;
      next_ = seq_.Next();
      if (next_ < until_) ArmFor(next_);
      if (fn_) fn_(batch_);
    });
    return;
  }
  // First window boundary strictly after the arrival: the batch delivered
  // at a boundary covers (boundary - window, boundary], so every delivered
  // arrival is already in the past. Empty windows never get an event —
  // the stream jumps straight to the window containing the next arrival.
  const Time boundary =
      Time{(arrival.count() / window_.count()) * window_.count()} + window_;
  event_ = sim_->ScheduleAt(boundary,
                            [this, boundary] { OnWindowEnd(boundary); });
}

void BatchedArrivalStream::OnWindowEnd(Time boundary) {
  event_ = sim::kInvalidEvent;
  batch_.clear();
  while (next_ <= boundary && next_ < until_) {
    batch_.push_back(next_);
    ++arrivals_;
    next_ = seq_.Next();
  }
  ++batches_;
  if (next_ < until_) ArmFor(next_);
  if (fn_ && !batch_.empty()) fn_(batch_);
}

}  // namespace ks::serving
