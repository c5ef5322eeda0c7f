#include "orbit/propagator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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

// positions_eci_at promises state_at's positions bit for bit. Negative and
// signed-zero times take the scalar fallback of the drift-free path. The
// equatorial orbit with a signed-zero RAAN and argp, starting before perigee,
// is where a rotation built from the wrong signed zero shows: its z is
// -0 * x + 0 * y.
TEST(Propagator, BatchPositionsEqualStateAtBitForBit) {
  const std::vector<double> times{0.0,     -0.0,     1.0,   30.0,  2'877.5,
                                  86'400.0, 1.0e7,   -30.0, -1.0e6};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  KeplerianElements equatorial = leo();
  equatorial.inclination = 0.0;
  equatorial.raan = -0.0;
  equatorial.arg_perigee = -0.0;
  equatorial.true_anomaly = deg_to_rad(-30.0);
  KeplerianElements signed_zero_raan = leo();
  signed_zero_raan.raan = -0.0;
  for (const KeplerianElements& orbit : {leo(), signed_zero_raan, equatorial}) {
    for (const bool j2 : {false, true}) {
      for (const double e : {0.0, 0.1}) {
        KeplerianElements el = orbit;
        el.eccentricity = e;
        PropagatorOptions options;
        options.include_j2 = j2;
        const TwoBodyPropagator prop(el, options);
        std::vector<Vec3> out(times.size());
        prop.positions_eci_at(times.data(), times.size(), out.data());
        for (std::size_t i = 0; i < times.size(); ++i) {
          const Vec3 want = prop.state_at(times[i]).position;
          EXPECT_TRUE(bits(out[i].x) == bits(want.x) &&
                      bits(out[i].y) == bits(want.y) &&
                      bits(out[i].z) == bits(want.z))
              << "i " << el.inclination << ", raan " << el.raan << ", j2 "
              << j2 << ", e " << e << ", t " << times[i];
        }
      }
    }
  }
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
