#include "orbit/propagator.hpp"

#include <cmath>
#include <vector>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace qntn::orbit {

TwoBodyPropagator::TwoBodyPropagator(const KeplerianElements& epoch_elements,
                                     PropagatorOptions options)
    : epoch_(epoch_elements) {
  // Checked here rather than deep inside solve_kepler, naming the field.
  QNTN_REQUIRE(std::isfinite(epoch_.semi_major_axis) &&
                   epoch_.semi_major_axis > 0.0,
               "orbital elements: semi_major_axis must be finite and > 0");
  QNTN_REQUIRE(epoch_.eccentricity >= 0.0 && epoch_.eccentricity < 1.0,
               "orbital elements: eccentricity must be in [0, 1) (elliptical "
               "orbits only)");
  QNTN_REQUIRE(std::isfinite(epoch_.inclination),
               "orbital elements: inclination must be finite");
  QNTN_REQUIRE(std::isfinite(epoch_.raan),
               "orbital elements: raan must be finite");
  QNTN_REQUIRE(std::isfinite(epoch_.arg_perigee),
               "orbital elements: arg_perigee must be finite");
  QNTN_REQUIRE(std::isfinite(epoch_.true_anomaly),
               "orbital elements: true_anomaly must be finite");
  mean_anomaly0_ = true_to_mean_anomaly(epoch_.true_anomaly, epoch_.eccentricity);
  mean_motion_ = epoch_.mean_motion();
  if (options.include_j2) {
    const double a = epoch_.semi_major_axis;
    const double e = epoch_.eccentricity;
    const double p = a * (1.0 - e * e);
    const double factor = 1.5 * kEarthJ2 * mean_motion_ *
                          (kWgs84A / p) * (kWgs84A / p);
    const double ci = std::cos(epoch_.inclination);
    const double si = std::sin(epoch_.inclination);
    raan_rate_ = -factor * ci;
    argp_rate_ = factor * (2.0 - 2.5 * si * si);
  }
}

KeplerianElements TwoBodyPropagator::elements_at(double t) const {
  KeplerianElements el = epoch_;
  el.raan = wrap_two_pi(epoch_.raan + raan_rate_ * t);
  el.arg_perigee = wrap_two_pi(epoch_.arg_perigee + argp_rate_ * t);
  const double m = mean_anomaly0_ + mean_motion_ * t;
  const double e_anom = solve_kepler(m, el.eccentricity);
  el.true_anomaly = eccentric_to_true_anomaly(e_anom, el.eccentricity);
  return el;
}

StateVector TwoBodyPropagator::state_at(double t) const {
  return elements_to_state(elements_at(t));
}

void TwoBodyPropagator::positions_eci_at(const double* times,
                                         std::size_t count, Vec3* out) const {
  std::vector<double> mean(count);
  for (std::size_t i = 0; i < count; ++i) {
    mean[i] = mean_anomaly0_ + mean_motion_ * times[i];
  }
  std::vector<double> eccentric(count);
  solve_kepler_batch(mean.data(), count, epoch_.eccentricity, eccentric.data());
  // Per-element conversion mirrors elements_at exactly (same expressions in
  // the same order), so each position is bit-identical to the scalar path.
  KeplerianElements el = epoch_;
  for (std::size_t i = 0; i < count; ++i) {
    el.raan = wrap_two_pi(epoch_.raan + raan_rate_ * times[i]);
    el.arg_perigee = wrap_two_pi(epoch_.arg_perigee + argp_rate_ * times[i]);
    el.true_anomaly = eccentric_to_true_anomaly(eccentric[i], el.eccentricity);
    out[i] = elements_to_state(el).position;
  }
}

}  // namespace qntn::orbit
