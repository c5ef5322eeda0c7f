#pragma once

#include "orbit/elements.hpp"

/// \file propagator.hpp
/// Analytic orbit propagation. TwoBodyPropagator advances the mean anomaly at
/// the Keplerian rate; with J2 enabled it additionally applies the secular
/// drift of RAAN and argument of perigee caused by Earth's oblateness — the
/// dominant perturbation for a 500 km LEO over a day (~5 deg of nodal drift
/// for the paper's 53 deg inclination), exposed so the J2 ablation bench can
/// quantify its effect on coverage.

namespace qntn::orbit {

struct PropagatorOptions {
  bool include_j2 = false;
};

class TwoBodyPropagator {
 public:
  /// Elements are taken to be osculating at sim time 0. Throws a
  /// PreconditionError naming the field for a non-finite element, a
  /// semi-major axis <= 0 or an eccentricity outside [0, 1).
  explicit TwoBodyPropagator(const KeplerianElements& epoch_elements,
                             PropagatorOptions options = {});

  /// Elements at time t [s since epoch] (mean anomaly advanced; RAAN/argp
  /// drifted if J2 is enabled).
  [[nodiscard]] KeplerianElements elements_at(double t) const;

  /// ECI Cartesian state at time t [s since epoch].
  [[nodiscard]] StateVector state_at(double t) const;

  /// Batched ECI positions: out[i] = state_at(times[i]).position,
  /// element-wise identical. Stages the propagation as structure-of-arrays
  /// passes (mean anomalies, then one batched Kepler solve, then the
  /// element-to-state conversion) so ephemeris generation runs over
  /// contiguous buffers instead of one sample at a time.
  void positions_eci_at(const double* times, std::size_t count,
                        Vec3* out) const;

  /// Secular nodal regression rate dRAAN/dt [rad/s] (0 without J2).
  [[nodiscard]] double raan_rate() const { return raan_rate_; }

  /// Secular apsidal rotation rate dargp/dt [rad/s] (0 without J2).
  [[nodiscard]] double arg_perigee_rate() const { return argp_rate_; }

  [[nodiscard]] const KeplerianElements& epoch_elements() const { return epoch_; }

 private:
  KeplerianElements epoch_;
  double mean_anomaly0_ = 0.0;
  double mean_motion_ = 0.0;
  double raan_rate_ = 0.0;
  double argp_rate_ = 0.0;
};

}  // namespace qntn::orbit
