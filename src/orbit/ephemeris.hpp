#pragma once

#include <cstddef>
#include <vector>

#include "common/vec3.hpp"
#include "geo/geodetic.hpp"
#include "orbit/propagator.hpp"

/// \file ephemeris.hpp
/// Sampled satellite trajectories. The paper exports "movement sheets" from
/// STK — satellite positions recorded every 30 seconds over a day — and
/// replays them in its simulator. Ephemeris is our equivalent: a fixed-step
/// table of ECEF positions generated by the propagator, with linear
/// interpolation between samples for off-grid queries.

namespace qntn::orbit {

/// Samples of a fixed-step grid over [0, duration]: ceil(duration / step)
/// + 1, the final partial step included. Throws PreconditionError unless
/// duration and step are finite and positive and the ratio is below 2^53,
/// so the count converts to std::size_t with no overflow and every grid
/// index k converts back to the double k * step exactly.
[[nodiscard]] std::size_t grid_sample_count(double duration, double step);

/// The sample times of a fixed-step grid over [0, duration] (i * step, the
/// last clamped to duration) and the Earth's orientation at each: the cosine
/// and sine of gmst_at(t_i, gmst0). Every satellite of a model is sampled
/// on the same grid, so one table, built once and shared read-only (also
/// across threads), serves them all. About 24 bytes per sample: 69 KB for a
/// day at 30 s.
class SampleGrid {
 public:
  /// Throws PreconditionError as grid_sample_count does.
  SampleGrid(double duration, double step, double gmst0 = 0.0);

  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] double step() const { return step_; }
  [[nodiscard]] const std::vector<double>& times() const { return times_; }

  /// ECEF position of the ECI vector `eci` at sample i: bit-identical to
  /// geo::eci_to_ecef(eci, geo::gmst_at(times()[i], gmst0)).
  [[nodiscard]] Vec3 to_ecef(std::size_t i, const Vec3& eci) const;

 private:
  double step_ = 0.0;
  std::vector<double> times_;
  std::vector<double> cos_gmst_;
  std::vector<double> sin_gmst_;
};

class Ephemeris {
 public:
  /// Sample the trajectory of `prop` on [0, duration] at fixed `step`
  /// seconds (the final partial step is included as a sample at duration).
  /// gmst0 fixes the Earth orientation at sim time zero. Builds its own
  /// SampleGrid; callers that sample many satellites share one instead.
  [[nodiscard]] static Ephemeris generate(const TwoBodyPropagator& prop,
                                          double duration, double step,
                                          double gmst0 = 0.0);

  /// Sample the trajectory of `prop` at the times of `grid`, in ECEF.
  [[nodiscard]] static Ephemeris generate(const TwoBodyPropagator& prop,
                                          const SampleGrid& grid);

  /// Construct directly from externally produced samples (e.g. loaded from
  /// a CSV movement sheet) at times i * step.
  Ephemeris(std::vector<Vec3> ecef_samples, double step);

  /// As above, but the last sample is at `duration`, which may end a
  /// partial final step: (count - 2) * step < duration <= (count - 1) *
  /// step, else PreconditionError.
  Ephemeris(std::vector<Vec3> ecef_samples, double step, double duration);

  /// ECEF position at time t (clamped to the sampled span), linearly
  /// interpolated between samples; a partial final step is interpolated
  /// over its real length. Throws PreconditionError for NaN.
  [[nodiscard]] Vec3 position_ecef(double t) const;

  /// ECEF position at sample index i (no interpolation).
  [[nodiscard]] const Vec3& sample(std::size_t i) const { return samples_[i]; }

  /// Time of sample i [s]: i * step, except the last, which is duration().
  [[nodiscard]] double sample_time(std::size_t i) const {
    return i + 1 == samples_.size() ? duration_
                                    : step_ * static_cast<double>(i);
  }

  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }
  [[nodiscard]] double step() const { return step_; }
  /// Time of the last sample [s].
  [[nodiscard]] double duration() const { return duration_; }

  /// Sub-satellite geodetic point at time t (ground track sample).
  [[nodiscard]] geo::Geodetic ground_point(double t) const;

 private:
  std::vector<Vec3> samples_;
  double step_ = 0.0;
  double duration_ = 0.0;
};

}  // namespace qntn::orbit
