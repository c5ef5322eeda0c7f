#include "orbit/elements.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "obs/profiler.hpp"

namespace qntn::orbit {

double KeplerianElements::period() const {
  const double a = semi_major_axis;
  return kTwoPi * std::sqrt(a * a * a / kEarthMu);
}

double KeplerianElements::mean_motion() const {
  const double a = semi_major_axis;
  return std::sqrt(kEarthMu / (a * a * a));
}

double solve_kepler(double mean_anomaly, double eccentricity) {
  QNTN_REQUIRE(eccentricity >= 0.0 && eccentricity < 1.0,
               "solve_kepler requires elliptical eccentricity");
  const double m = wrap_pi(mean_anomaly);
  if (eccentricity == 0.0) return m;

  // Third-order starter (Markley-style) keeps Newton in its basin for high e.
  double e0 = m + eccentricity * std::sin(m) /
                      (1.0 - std::sin(m + eccentricity) + std::sin(m));
  if (!std::isfinite(e0)) e0 = m;

  double e_anom = e0;
  for (int iter = 0; iter < 64; ++iter) {
    const double f = e_anom - eccentricity * std::sin(e_anom) - m;
    const double fp = 1.0 - eccentricity * std::cos(e_anom);
    const double step = f / fp;
    e_anom -= step;
    if (std::fabs(f) < 1e-13) return e_anom;
  }
  // Bisection fallback: f is monotone in E for e < 1.
  double lo = m - 1.0, hi = m + 1.0;
  while (lo - eccentricity * std::sin(lo) - m > 0.0) lo -= 1.0;
  while (hi - eccentricity * std::sin(hi) - m < 0.0) hi += 1.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double f = mid - eccentricity * std::sin(mid) - m;
    if (std::fabs(f) < 1e-13) return mid;
    (f > 0.0 ? hi : lo) = mid;
  }
  throw NumericalError("solve_kepler failed to converge");
}

void solve_kepler_batch(const double* mean_anomalies, std::size_t count,
                        double eccentricity, double* eccentric_out) {
  const obs::Span span("orbit.batch_kepler", count);
  for (std::size_t i = 0; i < count; ++i) {
    eccentric_out[i] = solve_kepler(mean_anomalies[i], eccentricity);
  }
}

double eccentric_to_true_anomaly(double eccentric_anomaly, double eccentricity) {
  const double beta = std::sqrt((1.0 + eccentricity) / (1.0 - eccentricity));
  return 2.0 * std::atan(beta * std::tan(eccentric_anomaly / 2.0));
}

double true_to_eccentric_anomaly(double true_anomaly, double eccentricity) {
  const double beta = std::sqrt((1.0 - eccentricity) / (1.0 + eccentricity));
  return 2.0 * std::atan(beta * std::tan(true_anomaly / 2.0));
}

double true_to_mean_anomaly(double true_anomaly, double eccentricity) {
  const double e_anom = true_to_eccentric_anomaly(true_anomaly, eccentricity);
  return e_anom - eccentricity * std::sin(e_anom);
}

PerifocalRotation::PerifocalRotation(double raan, double inclination,
                                     double arg_perigee) {
  const double co = std::cos(raan), so = std::sin(raan);
  const double ci = std::cos(inclination), si = std::sin(inclination);
  const double cw = std::cos(arg_perigee), sw = std::sin(arg_perigee);
  xp = co * cw - so * sw * ci;
  xq = -co * sw - so * cw * ci;
  yp = so * cw + co * sw * ci;
  yq = -so * sw + co * cw * ci;
  zp = sw * si;
  zq = cw * si;
}

StateVector elements_to_state(const KeplerianElements& el) {
  QNTN_REQUIRE(el.semi_major_axis > 0.0, "semi-major axis must be positive");
  const double e = el.eccentricity;
  const double nu = el.true_anomaly;
  const double p = el.semi_major_axis * (1.0 - e * e);  // semi-latus rectum
  const double r = p / (1.0 + e * std::cos(nu));
  const double vf = std::sqrt(kEarthMu / p);

  // Perifocal frame (PQW): P towards perigee, W along angular momentum.
  const PerifocalRotation rotation(el.raan, el.inclination, el.arg_perigee);
  return {rotation.apply(r * std::cos(nu), r * std::sin(nu)),
          rotation.apply(-vf * std::sin(nu), vf * (e + std::cos(nu)))};
}

}  // namespace qntn::orbit
