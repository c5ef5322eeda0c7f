#include "orbit/ephemeris.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/constants.hpp"
#include "common/units.hpp"
#include "geo/frames.hpp"

namespace qntn::orbit {
namespace {

TwoBodyPropagator qntn_sat() {
  KeplerianElements el;
  el.semi_major_axis = 6'871'000.0;
  el.eccentricity = 0.0;
  el.inclination = deg_to_rad(53.0);
  el.raan = 0.0;
  el.arg_perigee = 0.0;
  el.true_anomaly = 0.0;
  return TwoBodyPropagator(el);
}

bool same(const Vec3& a, const Vec3& b) {
  return a.x == b.x && a.y == b.y && a.z == b.z;
}

// Equal bit patterns: tells -0.0 from +0.0, which == does not.
bool same_bits(const Vec3& a, const Vec3& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y) &&
         bits(a.z) == bits(b.z);
}

TEST(Ephemeris, SampleCountForOneDayAt30s) {
  const Ephemeris eph = Ephemeris::generate(qntn_sat(), 86'400.0, 30.0);
  // 2880 intervals + the initial sample (the paper's STK movement sheets
  // record positions every 30 seconds over a day).
  EXPECT_EQ(eph.sample_count(), 2881u);
  EXPECT_DOUBLE_EQ(eph.step(), 30.0);
  EXPECT_DOUBLE_EQ(eph.duration(), 86'400.0);
}

TEST(Ephemeris, GridSamplesMatchPropagatorWithEarthRotation) {
  const TwoBodyPropagator prop = qntn_sat();
  const Ephemeris eph = Ephemeris::generate(prop, 3600.0, 30.0, 0.5);
  for (double t : {0.0, 300.0, 1800.0, 3600.0}) {
    const Vec3 expected =
        geo::eci_to_ecef(prop.state_at(t).position, geo::gmst_at(t, 0.5));
    EXPECT_TRUE(same_bits(eph.position_ecef(t), expected)) << t;
  }
}

// The batched path (one rotation per orbit without J2, one shared GMST
// table) must reproduce the scalar propagator and frame rotation exactly,
// sample by sample, on both horizon shapes. The equatorial orbit with a
// signed-zero RAAN and argp, starting before perigee, is where a rotation
// built from the epoch angles instead of elements_at's shows: its z is
// -0 * x + 0 * y, whose sign follows that of the zero.
TEST(Ephemeris, EverySampleEqualsThePropagatorBitForBit) {
  struct Orbit {
    double inclination_deg, raan, arg_perigee, true_anomaly_deg;
  };
  const Orbit orbits[] = {{53.0, deg_to_rad(120.0), deg_to_rad(40.0), 30.0},
                          {53.0, -0.0, deg_to_rad(40.0), 30.0},
                          {0.0, -0.0, -0.0, -30.0}};
  for (const Orbit& orbit : orbits) {
    for (const bool j2 : {false, true}) {
      for (const double e : {0.0, 0.1}) {
        KeplerianElements el;
        el.semi_major_axis = 6'871'000.0;
        el.eccentricity = e;
        el.inclination = deg_to_rad(orbit.inclination_deg);
        el.raan = orbit.raan;
        el.arg_perigee = orbit.arg_perigee;
        el.true_anomaly = deg_to_rad(orbit.true_anomaly_deg);
        PropagatorOptions options;
        options.include_j2 = j2;
        const TwoBodyPropagator prop(el, options);
        for (const double gmst0 : {0.0, 0.5}) {
          for (const double duration : {5'400.0, 5'410.0}) {  // exact, ragged
            const Ephemeris eph =
                Ephemeris::generate(prop, duration, 30.0, gmst0);
            ASSERT_EQ(eph.sample_count(), grid_sample_count(duration, 30.0));
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < eph.sample_count(); ++i) {
              const double t =
                  std::min(static_cast<double>(i) * 30.0, duration);
              const Vec3 want = geo::eci_to_ecef(prop.state_at(t).position,
                                                 geo::gmst_at(t, gmst0));
              if (!same_bits(eph.sample(i), want)) ++mismatches;
            }
            EXPECT_EQ(mismatches, 0u)
                << "i " << orbit.inclination_deg << ", raan " << orbit.raan
                << ", j2 " << j2 << ", e " << e << ", gmst0 " << gmst0
                << ", duration " << duration;
          }
        }
      }
    }
  }
}

TEST(Ephemeris, InterpolationStaysNearOrbitShell) {
  const Ephemeris eph = Ephemeris::generate(qntn_sat(), 3600.0, 30.0);
  // Mid-sample queries: the 30 s chord is ~229 km, so linear interpolation
  // sags below the shell by chord^2 / (8 r) ~ 0.9 km — 0.2% of the shortest
  // link range, far below the FSO budget's sensitivity.
  for (double t = 15.0; t < 3600.0; t += 150.0) {
    const double sag = 6'871'000.0 - eph.position_ecef(t).norm();
    EXPECT_GT(sag, 0.0);      // always sags inwards
    EXPECT_LT(sag, 1'000.0);  // bounded by the chord geometry
  }
}

TEST(Ephemeris, QueriesClampToSampledSpan) {
  const Ephemeris eph = Ephemeris::generate(qntn_sat(), 600.0, 30.0);
  EXPECT_NEAR(distance(eph.position_ecef(-100.0), eph.sample(0)), 0.0, 0.0);
  EXPECT_NEAR(
      distance(eph.position_ecef(1e9), eph.sample(eph.sample_count() - 1)), 0.0,
      0.0);
}

TEST(Ephemeris, GroundTrackLatitudeBoundedByInclination) {
  const Ephemeris eph = Ephemeris::generate(qntn_sat(), 86'400.0, 60.0);
  double max_lat = 0.0;
  for (double t = 0.0; t < 86'400.0; t += 120.0) {
    max_lat = std::max(max_lat, std::fabs(eph.ground_point(t).latitude));
  }
  // Circular inclined orbit: |latitude| <= inclination (plus ellipsoid fuzz).
  EXPECT_LT(max_lat, deg_to_rad(53.5));
  EXPECT_GT(max_lat, deg_to_rad(52.0));  // and it actually reaches it
}

TEST(Ephemeris, GroundTrackAltitudeIsZero) {
  const Ephemeris eph = Ephemeris::generate(qntn_sat(), 600.0, 30.0);
  EXPECT_DOUBLE_EQ(eph.ground_point(120.0).altitude, 0.0);
}

TEST(Ephemeris, ExternallyProvidedSamples) {
  std::vector<Vec3> samples{{1.0, 0.0, 0.0}, {2.0, 0.0, 0.0}, {3.0, 0.0, 0.0}};
  const Ephemeris eph(std::move(samples), 10.0);
  EXPECT_DOUBLE_EQ(eph.position_ecef(5.0).x, 1.5);
  EXPECT_DOUBLE_EQ(eph.position_ecef(10.0).x, 2.0);
}

TEST(Ephemeris, RejectsDegenerateInput) {
  EXPECT_THROW((void)Ephemeris({{1, 0, 0}}, 30.0), PreconditionError);
  EXPECT_THROW((void)Ephemeris({{1, 0, 0}, {2, 0, 0}}, 0.0), PreconditionError);
  EXPECT_THROW((void)Ephemeris::generate(qntn_sat(), -1.0, 30.0), PreconditionError);
}

TEST(Ephemeris, RaggedHorizonInterpolatesTheFinalPartialStep) {
  // 100 s at a 30 s step: samples at 0, 30, 60, 90 and 100. The last
  // interval is 10 s long, not 30, and must be interpolated as such.
  const TwoBodyPropagator prop = qntn_sat();
  const Ephemeris eph = Ephemeris::generate(prop, 100.0, 30.0);
  ASSERT_EQ(eph.sample_count(), 5u);
  EXPECT_EQ(eph.duration(), 100.0);
  EXPECT_EQ(eph.sample_time(3), 90.0);
  EXPECT_EQ(eph.sample_time(4), 100.0);
  const auto truth = [&prop](double t) {
    return geo::eci_to_ecef(prop.state_at(t).position, geo::gmst_at(t, 0.0));
  };
  EXPECT_NEAR(distance(eph.position_ecef(100.0), truth(100.0)), 0.0, 1e-6);
  EXPECT_NEAR(distance(eph.position_ecef(90.0), truth(90.0)), 0.0, 1e-6);
  // Inside the 10 s step a chord of ~76 km sags by chord^2 / (8 r) ~ 0.1
  // km at most; treating the step as 30 s long lands tens of km off.
  for (const double t : {92.5, 95.0, 99.0}) {
    EXPECT_LT(distance(eph.position_ecef(t), truth(t)), 150.0) << t;
  }
  // Past the span the query clamps to the sample at 100 s.
  EXPECT_TRUE(same(eph.position_ecef(130.0), eph.sample(4)));
}

TEST(Ephemeris, ExactHorizonInterpolationIsUnchanged) {
  // On a horizon that is a whole number of steps every query equals the
  // plain grid interpolation a + (b - a) * (t / step - lo), bit for bit.
  const Ephemeris eph = Ephemeris::generate(qntn_sat(), 3600.0, 30.0);
  EXPECT_EQ(eph.duration(), 3600.0);
  for (double t = 0.0; t <= 3600.0; t += 7.3) {
    const double idx = t / 30.0;
    const auto lo = static_cast<std::size_t>(idx);
    if (lo + 1 >= eph.sample_count()) {
      EXPECT_TRUE(same(eph.position_ecef(t), eph.sample(lo))) << t;
      continue;
    }
    const Vec3& a = eph.sample(lo);
    const Vec3 want =
        a + (eph.sample(lo + 1) - a) * (idx - static_cast<double>(lo));
    EXPECT_TRUE(same(eph.position_ecef(t), want)) << t;
  }
}

TEST(Ephemeris, ExplicitDurationMustEndInTheLastStep) {
  const std::vector<Vec3> samples{{1, 0, 0}, {2, 0, 0}, {3, 0, 0}};
  EXPECT_EQ(Ephemeris(samples, 10.0, 15.0).duration(), 15.0);
  EXPECT_EQ(Ephemeris(samples, 10.0, 20.0).duration(), 20.0);
  EXPECT_DOUBLE_EQ(Ephemeris(samples, 10.0, 15.0).position_ecef(12.5).x, 2.5);
  for (const double bad : {10.0, 5.0, 20.5, -1.0}) {
    EXPECT_THROW((void)Ephemeris(samples, 10.0, bad), PreconditionError) << bad;
  }
}

TEST(Ephemeris, ExtremeQueryTimesClampWithoutOverflow) {
  // t / step past the size_t range must clamp before any integer cast (the
  // ubsan preset traps float-cast-overflow), and NaN has no place to clamp.
  const Ephemeris eph = Ephemeris::generate(qntn_sat(), 600.0, 30.0);
  const Vec3& last = eph.sample(eph.sample_count() - 1);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(same(eph.position_ecef(1e30), last));
  EXPECT_TRUE(same(eph.position_ecef(std::numeric_limits<double>::max()), last));
  EXPECT_TRUE(same(eph.position_ecef(inf), last));
  EXPECT_TRUE(same(eph.position_ecef(-inf), eph.sample(0)));
  EXPECT_TRUE(same(eph.position_ecef(-1e30), eph.sample(0)));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)eph.position_ecef(nan), PreconditionError);
}

// The grid-size check Ephemeris::generate and the contact-plan compiler run
// before sizing any table. Validation only: no table is built here.
TEST(Ephemeris, GridSampleCountRejectsNonFiniteAndOversizedGrids) {
  EXPECT_EQ(grid_sample_count(86'400.0, 30.0), 2881u);
  EXPECT_EQ(grid_sample_count(100.0, 30.0), 5u);  // final partial step
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan, 0.0, -30.0}) {
    EXPECT_THROW((void)grid_sample_count(bad, 30.0), PreconditionError);
    EXPECT_THROW((void)grid_sample_count(86'400.0, bad), PreconditionError);
  }
  // Finite inputs whose ratio overflows the cast, or leaves indices that
  // no longer convert to double exactly.
  EXPECT_THROW((void)grid_sample_count(86'400.0, 1e-300), PreconditionError);
  EXPECT_THROW((void)grid_sample_count(1e300, 30.0), PreconditionError);
  EXPECT_THROW((void)grid_sample_count(0x1p53, 1.0), PreconditionError);
}

}  // namespace
}  // namespace qntn::orbit
