#include "orbit/propagator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace qntn::orbit {
namespace {

KeplerianElements leo() {
  KeplerianElements el;
  el.semi_major_axis = 6'871'000.0;
  el.eccentricity = 0.0;
  el.inclination = deg_to_rad(53.0);
  el.raan = deg_to_rad(120.0);
  el.arg_perigee = 0.0;
  el.true_anomaly = deg_to_rad(30.0);
  return el;
}

// Bad elements are rejected when the propagator is built, naming the field,
// instead of failing inside solve_kepler at the first query.
void expect_rejected(const KeplerianElements& el, const std::string& field) {
  try {
    const TwoBodyPropagator prop(el);
    FAIL() << field << " must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(PropagatorGuards, RejectsHyperbolicParabolicAndNanEccentricity) {
  for (const double bad : {1.0, 1.5, -0.1, kNan}) {
    KeplerianElements el = leo();
    el.eccentricity = bad;
    expect_rejected(el, "eccentricity");
  }
}

TEST(PropagatorGuards, RejectsNonPositiveOrNonFiniteSemiMajorAxis) {
  for (const double bad : {0.0, -7e6, kNan,
                           std::numeric_limits<double>::infinity()}) {
    KeplerianElements el = leo();
    el.semi_major_axis = bad;
    expect_rejected(el, "semi_major_axis");
  }
}

TEST(PropagatorGuards, RejectsNonFiniteAngles) {
  KeplerianElements el = leo();
  el.inclination = kNan;
  expect_rejected(el, "inclination");
  el = leo();
  el.raan = kNan;
  expect_rejected(el, "raan");
  el = leo();
  el.arg_perigee = kNan;
  expect_rejected(el, "arg_perigee");
  el = leo();
  el.true_anomaly = kNan;
  expect_rejected(el, "true_anomaly");
}

TEST(Propagator, ReturnsEpochStateAtZero) {
  const TwoBodyPropagator prop(leo());
  const StateVector s0 = prop.state_at(0.0);
  const StateVector s_ref = elements_to_state(leo());
  EXPECT_NEAR(distance(s0.position, s_ref.position), 0.0, 1e-3);
}

TEST(Propagator, PeriodicWithOrbitalPeriod) {
  const TwoBodyPropagator prop(leo());
  const double period = leo().period();
  const StateVector s0 = prop.state_at(0.0);
  const StateVector s1 = prop.state_at(period);
  EXPECT_NEAR(distance(s0.position, s1.position), 0.0, 1e-2);
  const StateVector s10 = prop.state_at(10.0 * period);
  EXPECT_NEAR(distance(s0.position, s10.position), 0.0, 1e-1);
}

TEST(Propagator, HalfPeriodIsAntipodalOnCircularOrbit) {
  const TwoBodyPropagator prop(leo());
  const double period = leo().period();
  const Vec3 p0 = prop.state_at(0.0).position;
  const Vec3 ph = prop.state_at(period / 2.0).position;
  EXPECT_NEAR(distance(p0, -1.0 * ph), 0.0, 1e-2);
}

TEST(Propagator, RadiusConstantOnCircularOrbit) {
  const TwoBodyPropagator prop(leo());
  for (double t = 0.0; t < 86'400.0; t += 1800.0) {
    EXPECT_NEAR(prop.state_at(t).position.norm(), 6'871'000.0, 1e-2);
  }
}

TEST(Propagator, EnergyConservedOnEllipticalOrbit) {
  KeplerianElements el = leo();
  el.eccentricity = 0.2;
  const TwoBodyPropagator prop(el);
  const double energy_ref = -kEarthMu / (2.0 * el.semi_major_axis);
  for (double t = 0.0; t < 20'000.0; t += 931.0) {
    const StateVector s = prop.state_at(t);
    const double energy =
        0.5 * s.velocity.norm_sq() - kEarthMu / s.position.norm();
    EXPECT_NEAR(energy, energy_ref, std::fabs(energy_ref) * 1e-10);
  }
}

TEST(Propagator, NoDriftWithoutJ2) {
  const TwoBodyPropagator prop(leo());
  EXPECT_DOUBLE_EQ(prop.raan_rate(), 0.0);
  EXPECT_DOUBLE_EQ(prop.arg_perigee_rate(), 0.0);
  EXPECT_DOUBLE_EQ(prop.elements_at(40'000.0).raan, leo().raan);
}

TEST(Propagator, J2NodalRegressionForPrograde) {
  PropagatorOptions options;
  options.include_j2 = true;
  const TwoBodyPropagator prop(leo(), options);
  // Prograde orbit (i < 90 deg): RAAN regresses (westward drift).
  EXPECT_LT(prop.raan_rate(), 0.0);
  // For a 500 km, 53 deg orbit the drift is about -5 deg/day.
  const double drift_deg_per_day = rad_to_deg(prop.raan_rate() * 86'400.0);
  EXPECT_NEAR(drift_deg_per_day, -5.0, 0.5);
}

TEST(Propagator, J2RetrogradeOrbitPrecessesEastward) {
  KeplerianElements el = leo();
  el.inclination = deg_to_rad(120.0);
  PropagatorOptions options;
  options.include_j2 = true;
  EXPECT_GT(TwoBodyPropagator(el, options).raan_rate(), 0.0);
}

TEST(Propagator, J2CriticalInclinationFreezesPerigee) {
  KeplerianElements el = leo();
  el.inclination = std::asin(std::sqrt(4.0 / 5.0));  // 63.43 deg
  PropagatorOptions options;
  options.include_j2 = true;
  EXPECT_NEAR(TwoBodyPropagator(el, options).arg_perigee_rate(), 0.0, 1e-12);
}

TEST(Propagator, J2DriftAppliedToElements) {
  PropagatorOptions options;
  options.include_j2 = true;
  const TwoBodyPropagator prop(leo(), options);
  const double t = 86'400.0;
  const KeplerianElements el = prop.elements_at(t);
  EXPECT_NEAR(el.raan, wrap_two_pi(leo().raan + prop.raan_rate() * t), 1e-12);
}

}  // namespace
}  // namespace qntn::orbit
