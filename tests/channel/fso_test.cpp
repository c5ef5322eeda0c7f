#include "channel/fso.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace qntn::channel {
namespace {

FsoConfig paper_config() {
  FsoConfig config;
  config.wavelength = 810e-9;
  config.receiver_efficiency = 0.995;
  config.ao_gain = 5.75;
  config.extinction.zenith_transmittance = 0.9875;
  return config;
}

OpticalTerminal big() { return {1.20, 1e-7}; }
OpticalTerminal small() { return {0.30, 1e-7}; }

FsoGeometry sat_geometry(double elevation) {
  const double re = kEarthRadius;
  const double h = 500e3;
  const double s = re * std::sin(elevation);
  FsoGeometry g;
  g.range = -s + std::sqrt(s * s + h * h + 2.0 * re * h);
  g.elevation = elevation;
  g.altitude_low = 0.0;
  g.altitude_high = h;
  return g;
}

// Each physics input the evaluator trusts is checked at construction; the
// rejection names the field.
void expect_rejected(const FsoConfig& config, const OpticalTerminal& a,
                     const std::string& field) {
  try {
    const FsoLinkEvaluator evaluator(config, a, big(), 0.0, 500e3);
    FAIL() << field << " must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FsoGuards, RejectsReceiverEfficiencyOutsideUnitInterval) {
  for (const double bad : {-0.1, 1.01, kNan}) {
    FsoConfig config = paper_config();
    config.receiver_efficiency = bad;
    expect_rejected(config, big(), "receiver_efficiency");
  }
}

TEST(FsoGuards, RejectsZenithTransmittanceOutsideHalfOpenUnitInterval) {
  for (const double bad : {0.0, -0.5, 1.5, kNan}) {
    FsoConfig config = paper_config();
    config.extinction.zenith_transmittance = bad;
    expect_rejected(config, big(), "zenith_transmittance");
  }
}

TEST(FsoGuards, RejectsNegativeOrNonFinitePointingJitter) {
  for (const double bad : {-1e-7, kNan, kInf}) {
    expect_rejected(paper_config(), {1.2, bad}, "pointing_jitter");
  }
}

TEST(FsoGuards, RejectsNegativeOrNonFinitePlatformJitter) {
  for (const double bad : {-1e-6, kNan, kInf}) {
    FsoConfig config = paper_config();
    config.weather.platform_jitter = bad;
    expect_rejected(config, big(), "platform_jitter");
  }
}

TEST(FsoGuards, RejectsNegativeOrNonFiniteOpticalDepthFactor) {
  for (const double bad : {-1.0, kNan, kInf}) {
    FsoConfig config = paper_config();
    config.weather.optical_depth_factor = bad;
    expect_rejected(config, big(), "optical_depth_factor");
  }
}

TEST(FsoGuards, RejectsNegativeOrNonFiniteTurbulenceFactor) {
  for (const double bad : {-1.0, kNan, kInf}) {
    FsoConfig config = paper_config();
    config.weather.turbulence_factor = bad;
    expect_rejected(config, big(), "turbulence_factor");
  }
}

TEST(FsoGuards, BoundaryValuesAreAccepted) {
  FsoConfig config = paper_config();
  config.receiver_efficiency = 1.0;
  config.extinction.zenith_transmittance = 1.0;
  config.weather.optical_depth_factor = 0.0;
  config.weather.turbulence_factor = 0.0;
  config.weather.platform_jitter = 0.0;
  const FsoLinkEvaluator evaluator(config, {1.2, 0.0}, big(), 0.0, 500e3);
  const double eta = evaluator.symmetric(600e3, deg_to_rad(60.0));
  EXPECT_GT(eta, 0.0);
  EXPECT_LE(eta, 1.0);
}

TEST(Fso, BudgetFactorsAreInUnitRange) {
  const FsoBudget b = evaluate_fso(paper_config(), big(), big(),
                                   sat_geometry(deg_to_rad(45.0)));
  for (double v : {b.eta_diffraction, b.eta_turbulence, b.eta_atmosphere,
                   b.eta_efficiency, b.total}) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_NEAR(b.total,
              b.eta_diffraction * b.eta_turbulence * b.eta_atmosphere *
                  b.eta_efficiency,
              1e-12);
}

TEST(Fso, TotalMonotoneInElevation) {
  const FsoConfig config = paper_config();
  double prev = 0.0;
  for (double el = 10.0; el <= 90.0; el += 5.0) {
    const FsoBudget b =
        evaluate_fso(config, big(), big(), sat_geometry(deg_to_rad(el)));
    EXPECT_GT(b.total, prev) << "el=" << el;
    prev = b.total;
  }
}

/// Spot-size pieces behave physically over a range sweep.
class FsoRangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(FsoRangeSweep, VacuumSpotGrowsWithRangeBeyondFocusLimit) {
  FsoGeometry g;
  g.range = GetParam();
  g.elevation = kPi / 2.0;
  g.altitude_low = 100e3;  // vacuum path: isolates diffraction
  g.altitude_high = 100e3 + GetParam();
  const FsoBudget b = evaluate_fso(paper_config(), big(), big(), g);
  // Optimal focusing: w(L) = sqrt(2 L lambda / pi) while uncapped.
  const double expected = std::sqrt(2.0 * g.range * 810e-9 / kPi);
  if (b.beam_waist < big().aperture_radius) {
    EXPECT_NEAR(b.spot_diffraction, expected, expected * 1e-9);
  } else {
    EXPECT_GE(b.spot_diffraction, expected);
  }
  EXPECT_DOUBLE_EQ(b.eta_atmosphere, 1.0);  // exoatmospheric
  EXPECT_DOUBLE_EQ(b.rytov_variance, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Ranges, FsoRangeSweep,
                         ::testing::Values(1e3, 1e4, 1e5, 5e5, 1e6, 3e6, 7e6));

TEST(Fso, ExoatmosphericPathHasNoAtmosphericLoss) {
  FsoGeometry g;
  g.range = 1000e3;
  g.elevation = 0.0;  // irrelevant above the atmosphere, must not throw
  g.altitude_low = 500e3;
  g.altitude_high = 500e3;
  const FsoBudget b = evaluate_fso(paper_config(), big(), big(), g);
  EXPECT_DOUBLE_EQ(b.eta_atmosphere, 1.0);
  // Residual pointing jitter is the only spread beyond diffraction here.
  EXPECT_GT(b.eta_turbulence, 0.99);
}

TEST(Fso, AtmosphericPathRequiresPositiveElevation) {
  FsoGeometry g = sat_geometry(deg_to_rad(30.0));
  g.elevation = 0.0;
  EXPECT_THROW((void)evaluate_fso(paper_config(), big(), big(), g),
               PreconditionError);
  g.elevation = -0.1;
  EXPECT_THROW((void)evaluate_fso(paper_config(), big(), big(), g),
               PreconditionError);
}

TEST(Fso, SmallerReceiverCollectsLess) {
  const FsoGeometry g = sat_geometry(deg_to_rad(40.0));
  const double into_big = evaluate_fso(paper_config(), big(), big(), g).total;
  const double into_small =
      evaluate_fso(paper_config(), big(), small(), g).total;
  EXPECT_GT(into_big, into_small);
}

TEST(Fso, SymmetricTransmissivityIsWorseDirection) {
  const FsoGeometry g = sat_geometry(deg_to_rad(40.0));
  const FsoConfig config = paper_config();
  const double ab = evaluate_fso(config, big(), small(), g).total;
  const double ba = evaluate_fso(config, small(), big(), g).total;
  const double sym = symmetric_transmissivity(config, big(), small(), g);
  EXPECT_DOUBLE_EQ(sym, std::min(ab, ba));
}

TEST(Fso, HigherAoGainImprovesAtmosphericLinks) {
  FsoConfig lo = paper_config();
  FsoConfig hi = paper_config();
  lo.ao_gain = 1.0;
  hi.ao_gain = 10.0;
  const FsoGeometry g = sat_geometry(deg_to_rad(30.0));
  EXPECT_GT(evaluate_fso(hi, big(), big(), g).total,
            evaluate_fso(lo, big(), big(), g).total);
}

TEST(Fso, WeatherProfilesDegradeTheLink) {
  const FsoGeometry g = sat_geometry(deg_to_rad(45.0));
  FsoConfig clear = paper_config();
  const double eta_clear = evaluate_fso(clear, big(), big(), g).total;
  for (const WeatherProfile& weather :
       {haze(), strong_turbulence(), light_rain()}) {
    FsoConfig bad = paper_config();
    bad.weather = weather;
    const double eta_bad = evaluate_fso(bad, big(), big(), g).total;
    EXPECT_LT(eta_bad, eta_clear) << weather.name;
  }
  // Light rain is the worst of the set.
  FsoConfig rain = paper_config();
  rain.weather = light_rain();
  FsoConfig hz = paper_config();
  hz.weather = haze();
  EXPECT_LT(evaluate_fso(rain, big(), big(), g).total,
            evaluate_fso(hz, big(), big(), g).total);
}

TEST(Fso, PointingJitterDegradesLongLinks) {
  const FsoGeometry g = sat_geometry(deg_to_rad(60.0));
  const OpticalTerminal steady{1.20, 0.0};
  const OpticalTerminal shaky{1.20, 5e-6};
  EXPECT_GT(evaluate_fso(paper_config(), steady, steady, g).total,
            evaluate_fso(paper_config(), shaky, shaky, g).total);
}

TEST(Fso, EvaluatorMatchesOneShotFunction) {
  const FsoConfig config = paper_config();
  const FsoLinkEvaluator evaluator(config, big(), small(), 0.0, 500e3);
  for (double el : {25.0, 40.0, 70.0}) {
    const FsoGeometry g = sat_geometry(deg_to_rad(el));
    const FsoBudget direct = evaluate_fso(config, big(), small(), g);
    const FsoBudget cached = evaluator.evaluate(g.range, g.elevation);
    EXPECT_NEAR(cached.total, direct.total, 1e-12);
    EXPECT_NEAR(cached.fried_r0, direct.fried_r0, 1e-9);
  }
}

TEST(Fso, RejectsBadConfiguration) {
  FsoConfig config = paper_config();
  const FsoGeometry g = sat_geometry(deg_to_rad(45.0));
  config.ao_gain = 0.5;
  EXPECT_THROW((void)evaluate_fso(config, big(), big(), g), PreconditionError);
  config = paper_config();
  EXPECT_THROW((void)evaluate_fso(config, {0.0, 0.0}, big(), g), PreconditionError);
  FsoGeometry bad = g;
  bad.range = 0.0;
  EXPECT_THROW((void)evaluate_fso(config, big(), big(), bad), PreconditionError);
}

}  // namespace
}  // namespace qntn::channel
