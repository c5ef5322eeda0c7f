#pragma once

#include <cstddef>

#include "common/vec3.hpp"

/// \file elements.hpp
/// Classical (Keplerian) orbital elements and the conversions the propagator
/// needs: Kepler's equation (mean -> eccentric anomaly), anomaly conversions,
/// and elements -> inertial Cartesian state. Built from scratch to replace
/// the Ansys STK dependency of the paper (DESIGN.md §1).

namespace qntn::orbit {

/// Classical orbital elements. Angles in radians, semi-major axis in metres.
/// Valid for elliptical orbits (0 <= e < 1); the constellation in the paper
/// is circular (e = 0).
struct KeplerianElements {
  double semi_major_axis = 0.0;  ///< a [m]
  double eccentricity = 0.0;     ///< e, in [0, 1)
  double inclination = 0.0;      ///< i [rad]
  double raan = 0.0;             ///< right ascension of ascending node [rad]
  double arg_perigee = 0.0;      ///< argument of perigee [rad]
  double true_anomaly = 0.0;     ///< nu at epoch [rad]

  /// Orbital period [s] from Kepler's third law.
  [[nodiscard]] double period() const;

  /// Mean motion n [rad/s].
  [[nodiscard]] double mean_motion() const;
};

/// Cartesian state in the Earth-centred inertial frame.
struct StateVector {
  Vec3 position;  ///< [m]
  Vec3 velocity;  ///< [m/s]
};

/// Solve Kepler's equation M = E - e*sin(E) for the eccentric anomaly E.
/// Newton-Raphson with a third-order starter; converges to |f(E)| < 1e-13
/// for all e in [0, 0.99]. Throws NumericalError if it fails to converge.
[[nodiscard]] double solve_kepler(double mean_anomaly, double eccentricity);

/// Batched Kepler solve over a contiguous array of mean anomalies sharing
/// one eccentricity (one orbit's worth of ephemeris samples at a time).
/// Element-wise identical to solve_kepler — the batch exists so the
/// ephemeris hot loop runs over structure-of-arrays buffers instead of
/// interleaving the solve with frame conversions, and so the profiler can
/// attribute the cost (obs::Span "orbit.batch_kepler").
void solve_kepler_batch(const double* mean_anomalies, std::size_t count,
                        double eccentricity, double* eccentric_out);

/// Eccentric anomaly -> true anomaly.
[[nodiscard]] double eccentric_to_true_anomaly(double eccentric_anomaly,
                                               double eccentricity);

/// True anomaly -> eccentric anomaly.
[[nodiscard]] double true_to_eccentric_anomaly(double true_anomaly,
                                               double eccentricity);

/// True anomaly -> mean anomaly (via eccentric anomaly).
[[nodiscard]] double true_to_mean_anomaly(double true_anomaly,
                                          double eccentricity);

/// The perifocal -> inertial rotation R3(-RAAN) R1(-i) R3(-argp), restricted
/// to the orbital plane (a PQW vector has no W component). elements_to_state
/// applies it to position and velocity; a propagator without secular drift
/// builds it once per orbit and applies it to every sample, with the same
/// coefficients and so bit-identical positions.
struct PerifocalRotation {
  PerifocalRotation(double raan, double inclination, double arg_perigee);

  /// ECI vector of the PQW vector (p, q, 0).
  [[nodiscard]] Vec3 apply(double p, double q) const {
    return {xp * p + xq * q, yp * p + yq * q, zp * p + zq * q};
  }

  double xp, xq, yp, yq, zp, zq;
};

/// Convert elements to an ECI Cartesian state (perifocal -> inertial via the
/// standard 3-1-3 rotation by RAAN, inclination, argument of perigee).
[[nodiscard]] StateVector elements_to_state(const KeplerianElements& el);

}  // namespace qntn::orbit
