#include "orbit/ephemeris.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "geo/frames.hpp"
#include "obs/profiler.hpp"

namespace qntn::orbit {

std::size_t grid_sample_count(double duration, double step) {
  QNTN_REQUIRE(std::isfinite(duration) && duration > 0.0 &&
                   std::isfinite(step) && step > 0.0,
               "duration and step must be finite and positive");
  const double intervals = std::ceil(duration / step);
  QNTN_REQUIRE(intervals < 0x1p53, "duration / step exceeds 2^53 samples");
  return static_cast<std::size_t>(intervals) + 1;
}

SampleGrid::SampleGrid(double duration, double step, double gmst0)
    : step_(step) {
  const std::size_t n = grid_sample_count(duration, step);
  times_.resize(n);
  cos_gmst_.resize(n);
  sin_gmst_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    times_[i] = std::min(static_cast<double>(i) * step, duration);
    const double gmst = geo::gmst_at(times_[i], gmst0);
    cos_gmst_[i] = std::cos(gmst);
    sin_gmst_[i] = std::sin(gmst);
  }
}

Vec3 SampleGrid::to_ecef(std::size_t i, const Vec3& eci) const {
  return geo::eci_to_ecef(eci, cos_gmst_[i], sin_gmst_[i]);
}

Ephemeris Ephemeris::generate(const TwoBodyPropagator& prop, double duration,
                              double step, double gmst0) {
  return generate(prop, SampleGrid(duration, step, gmst0));
}

Ephemeris Ephemeris::generate(const TwoBodyPropagator& prop,
                              const SampleGrid& grid) {
  const std::size_t n = grid.size();
  const obs::Span span("orbit.ephemeris_generate", n);
  // Structure-of-arrays staging: the batched propagator writes every ECI
  // position into one contiguous table, then one pass rotates each into
  // ECEF in place. Values are bit-identical to the sample-at-a-time path
  // (positions_eci_at mirrors state_at, to_ecef mirrors eci_to_ecef).
  std::vector<Vec3> samples(n);
  prop.positions_eci_at(grid.times().data(), n, samples.data());
  for (std::size_t i = 0; i < n; ++i) {
    samples[i] = grid.to_ecef(i, samples[i]);
  }
  return Ephemeris(std::move(samples), grid.step(), grid.times().back());
}

Ephemeris::Ephemeris(std::vector<Vec3> ecef_samples, double step)
    : samples_(std::move(ecef_samples)), step_(step) {
  QNTN_REQUIRE(samples_.size() >= 2, "ephemeris needs at least two samples");
  QNTN_REQUIRE(step_ > 0.0, "ephemeris step must be positive");
  duration_ = step_ * static_cast<double>(samples_.size() - 1);
}

Ephemeris::Ephemeris(std::vector<Vec3> ecef_samples, double step,
                     double duration)
    : Ephemeris(std::move(ecef_samples), step) {
  QNTN_REQUIRE(duration > duration_ - step_ && duration <= duration_,
               "ephemeris duration must end within the last sample step");
  duration_ = duration;
}

Vec3 Ephemeris::position_ecef(double t) const {
  QNTN_REQUIRE(!std::isnan(t), "ephemeris query time must not be NaN");
  // Clamp in the double domain: past the span, t / step may not fit a
  // std::size_t.
  if (t <= 0.0) return samples_.front();
  if (t >= duration_) return samples_.back();
  const double idx = t / step_;
  const auto lo = static_cast<std::size_t>(idx);
  if (lo >= samples_.size() - 1) return samples_.back();
  const Vec3& a = samples_[lo];
  const Vec3& b = samples_[lo + 1];
  // The final step ends at duration_, which a ragged horizon puts short of
  // a full step; every other step has the grid length.
  if (lo + 2 == samples_.size() &&
      duration_ != step_ * static_cast<double>(lo + 1)) {
    const double start = step_ * static_cast<double>(lo);
    return a + (b - a) * ((t - start) / (duration_ - start));
  }
  return a + (b - a) * (idx - static_cast<double>(lo));
}

geo::Geodetic Ephemeris::ground_point(double t) const {
  geo::Geodetic g = geo::ecef_to_geodetic(position_ecef(t));
  g.altitude = 0.0;
  return g;
}

}  // namespace qntn::orbit
